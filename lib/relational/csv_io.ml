(* Whole-document record scanner: newlines only terminate a record
   outside quotes, so quoted multiline fields survive. *)
let parse_records doc =
  let n = String.length doc in
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let field_started = ref false in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf;
    field_started := false
  in
  let flush_record () =
    (* a record is empty when it has no separators and no content *)
    if !fields <> [] || Buffer.length buf > 0 || !field_started then begin
      flush_field ();
      records := List.rev !fields :: !records;
      fields := []
    end
  in
  let rec go i =
    if i >= n then flush_record ()
    else
      match doc.[i] with
      | ',' ->
          flush_field ();
          field_started := true;
          go (i + 1)
      | '\n' ->
          flush_record ();
          go (i + 1)
      | '\r' when i + 1 < n && doc.[i + 1] = '\n' ->
          flush_record ();
          go (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  and quoted i =
    if i >= n then failwith "Csv_io.parse_records: unterminated quote"
    else
      match doc.[i] with
      | '"' when i + 1 < n && doc.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' ->
          field_started := true;
          go (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  go 0;
  List.rev !records

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let render_field s =
  if needs_quoting s then
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  else s

(* A lone empty field is quoted: bare, its record would be a blank line,
   which the scanner reads as no record. *)
let render_line = function
  | [ "" ] -> "\"\""
  | fields -> String.concat "," (List.map render_field fields)

let relation_of_string schema s =
  let attrs = Schema.attributes schema in
  let attr_names = List.map (fun (a : Schema.attribute) -> a.name) attrs in
  match parse_records s with
  | exception Failure e -> Error e
  | records ->
      let records =
        match records with
        | first :: rest when first = attr_names -> rest
        | records -> records
      in
      let parse_row fields =
        let describe () = String.concat "," fields in
        if List.length fields <> List.length attrs then
          Error
            (Printf.sprintf "row %S: expected %d fields, got %d" (describe ())
               (List.length attrs) (List.length fields))
        else
          let rec coerce acc attrs fields =
            match (attrs, fields) with
            | [], [] -> Ok (Tuple.make (List.rev acc))
            | (a : Schema.attribute) :: attrs, f :: fields -> (
                match Value.of_string a.ty f with
                | Ok v -> coerce (v :: acc) attrs fields
                | Error e -> Error (Printf.sprintf "row %S: %s" (describe ()) e))
            | _ -> assert false
          in
          coerce [] attrs fields
      in
      let rec go rel = function
        | [] -> Ok rel
        | fields :: rest -> (
            match parse_row fields with
            | Ok t -> go (Relation.insert rel t) rest
            | Error e -> Error e)
      in
      go (Relation.empty schema) records

let relation_to_string rel =
  let schema = Relation.schema rel in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (render_line
       (List.map (fun (a : Schema.attribute) -> a.name) (Schema.attributes schema)));
  Buffer.add_char buf '\n';
  Relation.iter
    (fun t ->
      Buffer.add_string buf
        (render_line (List.map Value.to_string (Tuple.to_list t)));
      Buffer.add_char buf '\n')
    rel;
  Buffer.contents buf

(* File loads return contextual errors (path + reason) instead of
   raising [Sys_error], so a failing server or CLI startup names the
   file it choked on. *)
let read_file path =
  (* a [Sys_error] message already names the file ("path: reason") *)
  match open_in_bin path with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read %s" e)
  | ic -> (
      match really_input_string ic (in_channel_length ic) with
      | contents ->
          close_in ic;
          Ok contents
      | exception Sys_error e ->
          close_in_noerr ic;
          Error (Printf.sprintf "cannot read %s" e)
      | exception End_of_file ->
          close_in_noerr ic;
          Error (Printf.sprintf "cannot read %s: truncated" path))

let load_relation schema path =
  match read_file path with
  | Error e -> Error e
  | Ok contents ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (relation_of_string schema contents)

let save_relation rel path =
  let oc = open_out path in
  output_string oc (relation_to_string rel);
  close_out oc
