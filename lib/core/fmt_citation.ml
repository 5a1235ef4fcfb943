module Value = Dc_relational.Value

type format = Human | Bibtex | Ris | Xml | Json

let format_of_string s =
  match String.lowercase_ascii s with
  | "human" | "text" -> Ok Human
  | "bibtex" | "bib" -> Ok Bibtex
  | "ris" -> Ok Ris
  | "xml" -> Ok Xml
  | "json" -> Ok Json
  | other -> Error (Printf.sprintf "unknown citation format %S" other)

let xml_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_value v =
  match v with
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Bool b -> string_of_bool b
  | Value.Null -> "null"
  | Value.Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Value.Timestamp t -> string_of_int t

(* A stable key for bibtex entries: view name + parameter values. *)
let cite_key c =
  let params = Citation.params c in
  let tail =
    String.concat "_" (List.map (fun (_, v) -> Value.to_string v) params)
  in
  let raw = if tail = "" then Citation.view c else Citation.view c ^ "_" ^ tail in
  String.map
    (fun ch ->
      if
        (ch >= 'a' && ch <= 'z')
        || (ch >= 'A' && ch <= 'Z')
        || (ch >= '0' && ch <= '9')
      then ch
      else '_')
    raw

let human_citation c =
  let b = Buffer.create 128 in
  Buffer.add_string b (Citation.view c);
  (match Citation.params c with
  | [] -> ()
  | ps ->
      Buffer.add_string b " [";
      Buffer.add_string b
        (String.concat ", "
           (List.map (fun (n, v) -> n ^ "=" ^ Value.to_string v) ps));
      Buffer.add_string b "]");
  List.iter
    (fun s ->
      Buffer.add_string b "\n  ";
      Buffer.add_string b (Snippet.source s);
      Buffer.add_string b ": ";
      Buffer.add_string b
        (String.concat "; "
           (List.map
              (fun (n, v) -> n ^ "=" ^ Value.to_string v)
              (Snippet.fields s))))
    (Citation.snippets c);
  Buffer.contents b

let bibtex_citation c =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "@misc{%s,\n" (cite_key c));
  Buffer.add_string b
    (Printf.sprintf "  howpublished = {database view %s},\n" (Citation.view c));
  List.iter
    (fun (n, v) ->
      Buffer.add_string b
        (Printf.sprintf "  note = {%s = %s},\n" n (Value.to_string v)))
    (Citation.params c);
  List.iteri
    (fun i s ->
      let fields =
        String.concat ", "
          (List.map
             (fun (n, v) -> Printf.sprintf "%s: %s" n (Value.to_string v))
             (Snippet.fields s))
      in
      Buffer.add_string b
        (Printf.sprintf "  annote%d = {%s: %s},\n" i (Snippet.source s) fields))
    (Citation.snippets c);
  Buffer.add_string b "}";
  Buffer.contents b

let ris_citation c =
  let b = Buffer.create 128 in
  Buffer.add_string b "TY  - DBASE\n";
  Buffer.add_string b (Printf.sprintf "TI  - %s\n" (Citation.view c));
  List.iter
    (fun (n, v) ->
      Buffer.add_string b
        (Printf.sprintf "ID  - %s=%s\n" n (Value.to_string v)))
    (Citation.params c);
  List.iter
    (fun s ->
      List.iter
        (fun (n, v) ->
          Buffer.add_string b
            (Printf.sprintf "N1  - %s.%s: %s\n" (Snippet.source s) n
               (Value.to_string v)))
        (Snippet.fields s))
    (Citation.snippets c);
  Buffer.add_string b "ER  -";
  Buffer.contents b

let xml_citation c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "<citation view=\"%s\">\n" (xml_escape (Citation.view c)));
  List.iter
    (fun (n, v) ->
      Buffer.add_string b
        (Printf.sprintf "  <param name=\"%s\">%s</param>\n" (xml_escape n)
           (xml_escape (Value.to_string v))))
    (Citation.params c);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  <snippet source=\"%s\">\n"
           (xml_escape (Snippet.source s)));
      List.iter
        (fun (n, v) ->
          Buffer.add_string b
            (Printf.sprintf "    <field name=\"%s\">%s</field>\n"
               (xml_escape n)
               (xml_escape (Value.to_string v))))
        (Snippet.fields s);
      Buffer.add_string b "  </snippet>\n")
    (Citation.snippets c);
  Buffer.add_string b "</citation>";
  Buffer.contents b

let json_citation c =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Printf.sprintf "\"view\": \"%s\", " (json_escape (Citation.view c)));
  Buffer.add_string b "\"params\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "\"%s\": %s" (json_escape n) (json_value v))
          (Citation.params c)));
  Buffer.add_string b "}, \"snippets\": [";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun s ->
            Printf.sprintf "{\"source\": \"%s\", \"fields\": {%s}}"
              (json_escape (Snippet.source s))
              (String.concat ", "
                 (List.map
                    (fun (n, v) ->
                      Printf.sprintf "\"%s\": %s" (json_escape n)
                        (json_value v))
                    (Snippet.fields s))))
          (Citation.snippets c)));
  Buffer.add_string b "]}";
  Buffer.contents b

let render_citation fmt c =
  match fmt with
  | Human -> human_citation c
  | Bibtex -> bibtex_citation c
  | Ris -> ris_citation c
  | Xml -> xml_citation c
  | Json -> json_citation c

let render fmt cs =
  match fmt with
  | Json ->
      "[" ^ String.concat ", " (List.map (render_citation Json) cs) ^ "]"
  | Xml ->
      "<citations>\n"
      ^ String.concat "\n" (List.map (render_citation Xml) cs)
      ^ "\n</citations>"
  | fmt -> String.concat "\n\n" (List.map (render_citation fmt) cs)

let render_result fmt ~query cs =
  match fmt with
  | Human -> Printf.sprintf "Citation for: %s\n\n%s" query (render Human cs)
  | Bibtex -> Printf.sprintf "%% query: %s\n%s" query (render Bibtex cs)
  | Ris -> Printf.sprintf "%s\nN1  - query: %s" (render Ris cs) query
  | Xml ->
      Printf.sprintf "<result query=\"%s\">\n%s\n</result>" (xml_escape query)
        (render Xml cs)
  | Json ->
      Printf.sprintf "{\"query\": \"%s\", \"citations\": %s}"
        (json_escape query) (render Json cs)
