(* The protocol-v2 wire form of a delta, factored down from the server
   codec so the storage WAL and the CLI's delta files use the exact
   on-the-wire encoding. *)

(* The same scalar coercion the CLI, REPL and server apply to loose
   values: an integer literal is an Int, everything else a Str. *)
let parse_scalar s =
  match int_of_string_opt s with
  | Some n -> Value.Int n
  | None -> Value.Str s

(* Floats get the shortest of [%.15g] / [%.17g] that reads back as the
   same float: [Value.to_string]'s [%g] (kept for citation text) would
   log [1.0000001] as [1]. *)
let render_value = function
  | Value.Float f ->
      let s = Printf.sprintf "%.15g" f in
      if Float.equal (float_of_string s) f then s
      else Printf.sprintf "%.17g" f
  | v -> Value.to_string v

let render d =
  String.concat ";"
    (List.concat_map
       (fun (rel, changes) ->
         List.map
           (fun (c : Delta.change) ->
             let sign, t =
               match c with
               | Delta.Insert t -> ('+', t)
               | Delta.Delete t -> ('-', t)
             in
             Printf.sprintf "%c%s(%s)" sign rel
               (String.concat "," (List.map render_value (Tuple.to_list t))))
           changes)
       (Delta.changes d))

(* One change: [+Rel(v1,v2,...)] or [-Rel(v1,v2,...)].  [coerce] turns
   the raw fields of relation [rel] into values; the scalar and the
   schema-typed parsers differ only there. *)
let parse_change ~coerce s =
  let s = String.trim s in
  let n = String.length s in
  let bad () =
    Error (Printf.sprintf "bad change %S (want +Rel(v,...) or -Rel(v,...))" s)
  in
  if n < 4 then bad ()
  else
    let sign = s.[0] in
    if sign <> '+' && sign <> '-' then bad ()
    else if s.[n - 1] <> ')' then bad ()
    else
      match String.index_opt s '(' with
      | None -> bad ()
      | Some i ->
          let rel = String.trim (String.sub s 1 (i - 1)) in
          let inner = String.sub s (i + 1) (n - i - 2) in
          let fields =
            String.split_on_char ',' inner
            |> List.map String.trim
            |> List.filter (fun p -> p <> "")
          in
          if rel = "" then bad ()
          else if fields = [] then
            Error (Printf.sprintf "bad change %S: empty tuple" s)
          else
            Result.map (fun tuple -> (sign, rel, tuple)) (coerce rel fields)

let parse_with ~coerce s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty delta"
  else
    let rec go acc = function
      | [] -> Ok acc
      | p :: rest -> (
          match parse_change ~coerce p with
          | Error e -> Error e
          | Ok ('+', rel, tuple) -> go (Delta.insert acc rel tuple) rest
          | Ok (_, rel, tuple) -> go (Delta.delete acc rel tuple) rest)
    in
    go Delta.empty parts

let parse s =
  parse_with s ~coerce:(fun _rel fields ->
      Ok (Tuple.make (List.map parse_scalar fields)))

(* Schema-typed parse: fields are coerced column by column through
   [Value.of_string], so a float or timestamp column round-trips as
   itself instead of decaying to [Str] — WAL replay depends on this to
   reproduce a committed database bit for bit. *)
let parse_typed ~schemas s =
  let schema_of rel =
    List.find_opt (fun sc -> String.equal (Schema.name sc) rel) schemas
  in
  parse_with s ~coerce:(fun rel fields ->
      match schema_of rel with
      | None -> Error (Printf.sprintf "unknown relation %s" rel)
      | Some schema ->
          let attrs = Schema.attributes schema in
          if List.length fields <> List.length attrs then
            Error
              (Printf.sprintf "expected %d fields for %s, got %d"
                 (List.length attrs) rel (List.length fields))
          else
            let rec coerce acc attrs fields =
              match (attrs, fields) with
              | [], [] -> Ok (Tuple.make (List.rev acc))
              | (a : Schema.attribute) :: attrs, f :: fields -> (
                  match Value.of_string a.ty f with
                  | Ok v -> coerce (v :: acc) attrs fields
                  | Error e -> Error (Printf.sprintf "%s: %s" rel e))
              | _ -> assert false
            in
            coerce [] attrs fields)

(* Whether one value's field survives the parser on its own: it must
   stay one non-empty field with no surrounding blanks, and coerce back
   to itself. *)
let field_replays ty v =
  let f = render_value v in
  f <> ""
  && String.equal (String.trim f) f
  && (not (String.exists (fun c -> c = ',' || c = ';') f))
  &&
  match Value.of_string ty f with
  | Ok v' -> Value.equal v v'
  | Error _ -> false

let replay_error ~schemas d =
  match parse_typed ~schemas (render d) with
  (* [compare], not [=]: a NaN that comes back is the same value *)
  | Ok d' when compare (Delta.changes d') (Delta.changes d) = 0 -> None
  | parsed -> (
      let culprit (rel, changes) =
        match List.find_opt (fun sc -> Schema.name sc = rel) schemas with
        | None -> None
        | Some sc ->
            let tys =
              List.map (fun (a : Schema.attribute) -> a.ty) (Schema.attributes sc)
            in
            List.find_map
              (fun (Delta.Insert t | Delta.Delete t) ->
                let vs = Tuple.to_list t in
                if List.compare_lengths tys vs <> 0 then None
                else
                  List.combine tys vs
                  |> List.find_opt (fun (ty, v) -> not (field_replays ty v))
                  |> Option.map (fun (_, v) -> (rel, v)))
              changes
      in
      match (List.find_map culprit (Delta.changes d), parsed) with
      | Some (rel, v), _ ->
          Some
            (Printf.sprintf "%s: %s %S would not replay from the log" rel
               (Value.ty_to_string (Value.type_of v))
               (render_value v))
      | None, Error e -> Some e
      | None, Ok _ -> Some "the logged delta would not replay as committed")
