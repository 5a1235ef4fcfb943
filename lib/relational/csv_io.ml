(* One pass over the whole document.  A cursor cuts each field by
   index and coerces it where it lies: an unquoted field is at most one
   [String.sub] of the document (an integer not even that), and only a
   quoted one goes through the buffer.  Newlines end a record only
   outside quotes, so quoted multiline fields survive; a blank line is
   no record. *)
type cursor = {
  doc : string;
  mutable pos : int;
  mutable quoted : bool;  (** whether the field just cut began with a quote *)
  mutable start : int;  (** an unquoted field is [doc.[start .. stop - 1]] *)
  mutable stop : int;
  buf : Buffer.t;  (** a quoted field's text *)
}

(* The end of the unquoted run at [i]: a comma, a newline, the CR of a
   CRLF, or the end of the document. *)
let rec plain_end doc n i =
  if i >= n then i
  else
    match String.unsafe_get doc i with
    | ',' | '\n' -> i
    | '\r' when i + 1 < n && String.unsafe_get doc (i + 1) = '\n' -> i
    | _ -> plain_end doc n (i + 1)

(* Cuts the field at the cursor, leaving the cursor on the character
   that ends it.  Characters after a closing quote, up to that end,
   belong to the field. *)
let cut_field c =
  let doc = c.doc and start = c.pos in
  let n = String.length doc in
  if start < n && doc.[start] = '"' then begin
    let buf = c.buf in
    Buffer.clear buf;
    let rec quoted i =
      if i >= n then failwith "unterminated quote"
      else
        match doc.[i] with
        | '"' when i + 1 < n && doc.[i + 1] = '"' ->
            Buffer.add_char buf '"';
            quoted (i + 2)
        | '"' -> i + 1
        | ch ->
            Buffer.add_char buf ch;
            quoted (i + 1)
    in
    let after = quoted (start + 1) in
    let stop = plain_end doc n after in
    Buffer.add_substring buf doc after (stop - after);
    c.pos <- stop;
    c.quoted <- true
  end
  else begin
    let stop = plain_end doc n start in
    c.pos <- stop;
    c.quoted <- false;
    c.start <- start;
    c.stop <- stop
  end

let text c =
  if c.quoted then Buffer.contents c.buf
  else String.sub c.doc c.start (c.stop - c.start)

(* Moves the cursor past blank lines; false at the end of the document. *)
let rec next_record c =
  let doc = c.doc and i = c.pos in
  let n = String.length doc in
  if i < n && doc.[i] = '\n' then begin
    c.pos <- i + 1;
    next_record c
  end
  else if i + 1 < n && doc.[i + 1] = '\n' && doc.[i] = '\r' then begin
    c.pos <- i + 2;
    next_record c
  end
  else i < n

(* Cuts the fields of the record at the cursor (see [next_record]) from
   the [k]th on, calling [field k] with the cursor on each, and returns
   how many fields the record has; leaves the cursor past its
   terminator.  Raises [Failure] on an unterminated quote. *)
let rec cut_record c field k =
  cut_field c;
  field k;
  let doc = c.doc and i = c.pos in
  let n = String.length doc in
  if i < n && doc.[i] = ',' then begin
    c.pos <- i + 1;
    cut_record c field (k + 1)
  end
  else begin
    c.pos <- (if i >= n then n else if doc.[i] = '\n' then i + 1 else i + 2);
    k + 1
  end

let record_texts c =
  let texts = ref [] in
  ignore (cut_record c (fun _ -> texts := text c :: !texts) 0);
  List.rev !texts

exception Bad_row of string

(* [doc.[i .. j - 1]] as a natural number when it is 1 to 18 digits,
   which cannot overflow; -1 otherwise. *)
let rec digits doc i j acc =
  if i = j then acc
  else
    let d = Char.code (String.unsafe_get doc i) - 48 in
    if d < 0 || d > 9 then -1 else digits doc (i + 1) j ((acc * 10) + d)

(* The field at the cursor as a value of type [ty], as
   {!Value.of_string} reads it, except that a quoted field of a string
   column is that string even when it reads as NULL. *)
let of_text ty c =
  match Value.of_string ty (text c) with
  | Ok v -> v
  | Error e -> raise (Bad_row e)

let field_value (ty : Value.ty) c =
  match ty with
  | TStr | TAny ->
      let s = text c in
      if (not c.quoted) && Value.reads_as_null s then Value.Null else Str s
  | TInt when not c.quoted ->
      let doc = c.doc and i = c.start and j = c.stop in
      let neg = i < j && String.unsafe_get doc i = '-' in
      let i = if neg then i + 1 else i in
      let n = if i < j && j - i <= 18 then digits doc i j 0 else -1 in
      if n < 0 then of_text ty c else Int (if neg then -n else n)
  | _ -> of_text ty c

let relation_of_string schema s =
  let attrs = Schema.attributes schema in
  let tys = Array.of_list (List.map (fun (a : Schema.attribute) -> a.ty) attrs) in
  let arity = Array.length tys in
  let c =
    { doc = s; pos = 0; quoted = false; start = 0; stop = 0; buf = Buffer.create 64 }
  in
  let row = ref [||] in
  let field k = if k < arity then !row.(k) <- field_value tys.(k) c in
  (* the row's fields joined by commas, for an error message *)
  let describe start =
    c.pos <- start;
    String.concat "," (record_texts c)
  in
  let rec rows acc =
    if not (next_record c) then Ok (List.rev acc)
    else
      let start = c.pos in
      row := Array.make arity Value.Null;
      match cut_record c field 0 with
      | got when got = arity -> rows (!row :: acc)
      | got ->
          Error
            (Printf.sprintf "row %S: expected %d fields, got %d"
               (describe start) arity got)
      | exception Bad_row e ->
          Error (Printf.sprintf "row %S: %s" (describe start) e)
  in
  let names = List.map (fun (a : Schema.attribute) -> a.name) attrs in
  match
    if next_record c then begin
      let start = c.pos in
      if record_texts c <> names then c.pos <- start
    end;
    rows []
  with
  | rows -> Result.map (Relation.of_list schema) rows
  | exception Failure e -> Error e

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\""
      else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let render_field s = if needs_quoting s then quote s else s

(* The first of 15, 16 or 17 significant digits that reads back as the
   same bits ([Value.to_string]'s [%g] keeps six).  A NaN has no such
   text and is written [nan] or [-nan]. *)
let render_float f =
  let at p = Printf.sprintf "%.*g" p f in
  let exact s =
    Int64.equal
      (Int64.bits_of_float (float_of_string s))
      (Int64.bits_of_float f)
  in
  match List.find_opt exact [ at 15; at 16 ] with Some s -> s | None -> at 17

(* A string that reads as NULL unquoted is written quoted. *)
let render_value = function
  | Value.Str s when Value.reads_as_null s -> quote s
  | Value.Float f -> render_float f
  | v -> render_field (Value.to_string v)

(* A lone empty field is quoted: bare, its record would be a blank line,
   which the scanner reads as no record. *)
let render_line = function
  | [ "" ] -> "\"\""
  | fields -> String.concat "," fields

let relation_to_string rel =
  let schema = Relation.schema rel in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (render_line
       (List.map
          (fun (a : Schema.attribute) -> render_field a.name)
          (Schema.attributes schema)));
  Buffer.add_char buf '\n';
  Relation.iter
    (fun t ->
      Buffer.add_string buf
        (render_line (List.map render_value (Tuple.to_list t)));
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
      Dc_parallel.Metrics.record_time "csv_load" @@ fun () ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (relation_of_string schema contents)

let save_relation rel path =
  let oc = open_out path in
  output_string oc (relation_to_string rel);
  close_out oc
