module R = Dc_relational

let parse doc =
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
    if i >= n then failwith "unterminated quote"
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

let load schema doc =
  let attrs = R.Schema.attributes schema in
  let names = List.map (fun (a : R.Schema.attribute) -> a.name) attrs in
  let row fields =
    if List.length fields <> List.length attrs then
      Error (Printf.sprintf "expected %d fields" (List.length attrs))
    else
      List.fold_right2
        (fun (a : R.Schema.attribute) f acc ->
          Result.bind acc (fun vs ->
              Result.map (fun v -> v :: vs) (R.Value.of_string a.ty f)))
        attrs fields (Ok [])
      |> Result.map R.Tuple.make
  in
  match parse doc with
  | exception Failure e -> Error e
  | records ->
      let records =
        match records with
        | first :: rest when first = names -> rest
        | records -> records
      in
      List.fold_left
        (fun acc fields ->
          Result.bind acc (fun rel ->
              Result.map (R.Relation.insert rel) (row fields)))
        (Ok (R.Relation.empty schema))
        records
