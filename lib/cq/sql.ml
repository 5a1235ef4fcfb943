module Value = Dc_relational.Value
module Schema = Dc_relational.Schema

type token =
  | WORD of string
  | STRING of string
  | INT of int
  | FLOAT of float
  | DOT
  | COMMA
  | EQUALS
  | EOF

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit t = out := t :: !out in
  let rec go i =
    if i >= n then Ok ()
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '.' ->
          emit DOT;
          go (i + 1)
      | ',' ->
          emit COMMA;
          go (i + 1)
      | '=' ->
          emit EQUALS;
          go (i + 1)
      | ('\'' | '"') as quote ->
          let buf = Buffer.create 16 in
          let rec scan j =
            if j >= n then Error "unterminated string literal"
            else if src.[j] = quote then begin
              emit (STRING (Buffer.contents buf));
              go (j + 1)
            end
            else begin
              Buffer.add_char buf src.[j];
              scan (j + 1)
            end
          in
          scan (i + 1)
      | c when c >= '0' && c <= '9' ->
          let j = ref i in
          while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
          if !j < n && src.[!j] = '.' && !j + 1 < n && src.[!j + 1] >= '0' && src.[!j + 1] <= '9'
          then begin
            incr j;
            while !j < n && src.[!j] >= '0' && src.[!j] <= '9' do incr j done;
            emit (FLOAT (float_of_string (String.sub src i (!j - i))));
            go !j
          end
          else begin
            emit (INT (int_of_string (String.sub src i (!j - i))));
            go !j
          end
      | c when is_word_char c ->
          let j = ref i in
          while !j < n && is_word_char src.[!j] do incr j done;
          emit (WORD (String.sub src i (!j - i)));
          go !j
      | c -> Error (Printf.sprintf "unexpected character %C" c)
  in
  Result.map (fun () -> List.rev !out @ [ EOF ]) (go 0)

(* Split the token stream into SELECT / FROM / WHERE clauses. *)
let keyword = function
  | WORD w -> (
      match String.uppercase_ascii w with
      | ("SELECT" | "FROM" | "WHERE" | "AND" | "AS") as k -> Some k
      | _ -> None)
  | _ -> None

type sel = { alias : string; col : string; out : string option }
type cond =
  | Join of (string * string) * (string * string)
  | Fix of (string * string) * Value.t

type ast = {
  sels : sel list;
  froms : (string * string) list; (* relation, alias *)
  conds : cond list;
}

let parse_tokens toks =
  let toks = ref toks in
  let peek () = match !toks with [] -> EOF | t :: _ -> t in
  let advance () = match !toks with [] -> () | _ :: r -> toks := r in
  let expect_keyword k =
    if keyword (peek ()) = Some k then begin
      advance ();
      Ok ()
    end
    else Error (Printf.sprintf "expected %s" k)
  in
  let word what =
    match peek () with
    | WORD w when keyword (WORD w) = None ->
        advance ();
        Ok w
    | _ -> Error ("expected " ^ what)
  in
  let ( let* ) = Result.bind in
  let qualified () =
    let* alias = word "alias" in
    match peek () with
    | DOT ->
        advance ();
        let* col = word "column" in
        Ok (alias, col)
    | _ -> Error (Printf.sprintf "expected '.' after %s (columns are alias.Col)" alias)
  in
  let rec sels acc =
    let* alias, col = qualified () in
    let* out =
      if keyword (peek ()) = Some "AS" then begin
        advance ();
        Result.map Option.some (word "output name")
      end
      else Ok None
    in
    let acc = { alias; col; out } :: acc in
    match peek () with
    | COMMA ->
        advance ();
        sels acc
    | _ -> Ok (List.rev acc)
  in
  let rec froms acc =
    let* rel = word "relation" in
    let* alias = word "alias" in
    let acc = (rel, alias) :: acc in
    match peek () with
    | COMMA ->
        advance ();
        froms acc
    | _ -> Ok (List.rev acc)
  in
  let cond () =
    let* lhs = qualified () in
    match peek () with
    | EQUALS -> (
        advance ();
        match peek () with
        | INT i ->
            advance ();
            Ok (Fix (lhs, Value.Int i))
        | FLOAT f ->
            advance ();
            Ok (Fix (lhs, Value.Float f))
        | STRING s ->
            advance ();
            Ok (Fix (lhs, Value.Str s))
        | WORD _ ->
            let* rhs = qualified () in
            Ok (Join (lhs, rhs))
        | _ -> Error "expected column or literal after '='")
    | _ -> Error "expected '=' (only equality conditions are supported)"
  in
  let rec conds acc =
    let* c = cond () in
    let acc = c :: acc in
    if keyword (peek ()) = Some "AND" then begin
      advance ();
      conds acc
    end
    else Ok (List.rev acc)
  in
  let* () = expect_keyword "SELECT" in
  let* sels = sels [] in
  let* () = expect_keyword "FROM" in
  let* froms = froms [] in
  let* conds =
    if keyword (peek ()) = Some "WHERE" then begin
      advance ();
      conds []
    end
    else Ok []
  in
  match peek () with
  | EOF -> Ok { sels; froms; conds }
  | _ -> Error "trailing input"

let compile ~schemas sql =
  let ( let* ) = Result.bind in
  let* toks = tokenize sql in
  let* ast = parse_tokens toks in
  if ast.froms = [] then Error "empty FROM clause"
  else
    let schema_of rel =
      match
        List.find_opt (fun s -> String.equal (Schema.name s) rel) schemas
      with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "unknown relation %s" rel)
    in
    let* () =
      let aliases = List.map snd ast.froms in
      if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
      then Error "duplicate alias in FROM"
      else Ok ()
    in
    (* variable for each (alias, position) *)
    let var alias i = Term.Var (Printf.sprintf "%s_%d" alias i) in
    let resolve (alias, col) =
      match List.assoc_opt alias (List.map (fun (r, a) -> (a, r)) ast.froms) with
      | None -> Error (Printf.sprintf "unknown alias %s" alias)
      | Some rel -> (
          let* schema = schema_of rel in
          match Schema.position schema col with
          | Some i -> Ok (var alias i)
          | None -> Error (Printf.sprintf "no column %s in %s" col rel))
    in
    let* atoms =
      List.fold_left
        (fun acc (rel, alias) ->
          let* acc = acc in
          let* schema = schema_of rel in
          Ok (acc @ [ Atom.make rel (List.init (Schema.arity schema) (var alias)) ]))
        (Ok []) ast.froms
    in
    (* conditions via unification classes *)
    let* classes =
      List.fold_left
        (fun acc c ->
          let* classes = acc in
          match c with
          | Join (l, r) -> (
              let* tl = resolve l in
              let* tr = resolve r in
              match Unify.Classes.union classes tl tr with
              | Some cl -> Ok cl
              | None -> Error "contradictory conditions")
          | Fix (l, v) -> (
              let* tl = resolve l in
              match Unify.Classes.union classes tl (Term.Const v) with
              | Some cl -> Ok cl
              | None -> Error "contradictory constant conditions"))
        (Ok Unify.Classes.empty) ast.conds
    in
    let subst = Unify.Classes.to_subst classes (fun _ -> false) in
    let atoms = Subst.apply_atoms subst atoms in
    (* head: selected columns, renamed to readable output names *)
    let* head_pairs =
      List.fold_left
        (fun acc (s : sel) ->
          let* acc = acc in
          let* t = resolve (s.alias, s.col) in
          let t = Subst.apply_term subst t in
          let out = match s.out with Some o -> o | None -> s.col in
          Ok (acc @ [ (out, t) ]))
        (Ok []) ast.sels
    in
    (* rename head variables to their output names where unambiguous *)
    let rename =
      List.fold_left
        (fun ren (out, t) ->
          match t with
          | Term.Var v
            when (not (List.mem_assoc v ren))
                 && not (List.exists (fun (_, v') -> v' = out) ren) ->
              (v, out) :: ren
          | _ -> ren)
        [] head_pairs
    in
    let rename_subst =
      Subst.of_list (List.map (fun (v, out) -> (v, Term.Var out)) rename)
    in
    let atoms = Subst.apply_atoms rename_subst atoms in
    let head =
      List.map (fun (_, t) -> Subst.apply_term rename_subst t) head_pairs
    in
    match Query.make ~name:"Q" ~head ~body:atoms () with
    | Ok q -> Ok q
    | Error e -> Error e
