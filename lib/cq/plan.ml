module R = Dc_relational
module Sset = Set.Make (String)

type source = Const of R.Value.t | Slot of int

(* One register op per atom position, resolved at compile time:
   - [Skip]: the position is part of the index key — the probe already
     guaranteed equality, nothing to do at run time;
   - [Bind s]: first occurrence of a free variable — write the tuple's
     value into register [s];
   - [Check s]: a repeated free variable within the same atom — the
     value must agree with what [Bind] just wrote. *)
type op = Skip | Bind of int | Check of int

type step = {
  pred : string;
  rel : R.Relation.t;
  (* [None] = full scan over [Relation.scan rel] (the atom had no bound
     position); [Some idx] = probe [idx] with the key read from
     [key_sources]. *)
  index : R.Index.t option;
  key_sources : source array;
  ops : op array;
}

type t = {
  query : Query.t;
  slots : string array;
  steps : step array;
  head : source array;
  head_prefix : int;
  (* [Some positions]: in head order, the first step scans
     [Relation.scan_by rel positions] instead of [Relation.scan rel];
     [None] when the extent's own order already serves *)
  outer_order : int list option;
  deps : (string * R.Relation.t) list;
}

let slots t = t.slots
let head_prefix t = t.head_prefix
let atom_order t = List.map (fun s -> s.pred) (Array.to_list t.steps)

let is_truth atom = Atom.pred atom = "True" && Atom.args atom = []

(* Estimated candidate count for [atom] given the compile-time bound
   variable set: full cardinality for a scan, cardinality scaled by the
   textbook per-column selectivities (1/distinct) for an index probe.
   Cardinalities and distinct counts are memoized on the relation values
   ({!R.Stats}). *)
let atom_cost db bound atom =
  let pred = Atom.pred atom in
  let card = float_of_int (R.Stats.cardinality db pred) in
  let arity_known =
    match R.Database.relation db pred with
    | Some rel -> R.Schema.arity (R.Relation.schema rel)
    | None -> 0
  in
  let rec go i sel any_bound = function
    | [] -> (sel, any_bound)
    | term :: rest ->
        let bound_here =
          match term with
          | Term.Const _ -> true
          | Term.Var v -> Sset.mem v bound
        in
        if bound_here then
          let sel =
            if i < arity_known then sel *. R.Stats.selectivity db pred i
            else sel
          in
          go (i + 1) sel true rest
        else go (i + 1) sel any_bound rest
  in
  let sel, any_bound = go 0 1.0 false (Atom.args atom) in
  if any_bound then card *. sel else card

(* Greedy cost-based join order: repeatedly pick the cheapest atom under
   the variables bound so far.  Ties keep body order (fold keeps the
   first minimum), so plans are deterministic.  The last atom left is
   taken without costing it, so a one-atom body reads no statistics. *)
let order_atoms db body =
  let rec go bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | [ last ] -> List.rev (last :: acc)
    | first :: rest ->
        let best, _ =
          List.fold_left
            (fun (best, best_cost) atom ->
              let c = atom_cost db bound atom in
              if c < best_cost then (atom, c) else (best, best_cost))
            (first, atom_cost db bound first)
            rest
        in
        let remaining = List.filter (fun a -> not (a == best)) remaining in
        let bound =
          List.fold_left (fun s v -> Sset.add v s) bound (Atom.var_list best)
        in
        go bound remaining (best :: acc)
  in
  go Sset.empty body []

(* The head's leading terms that a scan-first plan binds from its outer
   atom: constants count as bound, and the prefix stops at the first
   head variable the atom does not bind.  Returns the prefix length and
   the atom position of each prefix variable's first occurrence, without
   repeats, in head order; iterating the outer atom sorted by those
   positions emits in non-decreasing head-prefix order.  A probe-first
   (or empty) body has no such prefix. *)
let leading_head_positions head = function
  | first :: _ when List.for_all Term.is_var (Atom.args first) ->
      let args = Atom.args first in
      let rec go k positions = function
        | Term.Const _ :: rest -> go (k + 1) positions rest
        | (Term.Var _ as v) :: rest -> (
            match List.find_index (Term.equal v) args with
            | Some p ->
                let positions =
                  if List.mem p positions then positions else p :: positions
                in
                go (k + 1) positions rest
            | None -> (k, List.rev positions))
        | [] -> (k, List.rev positions)
      in
      go 0 [] head
  | _ -> (0, [])

let compile ~relation ~index db q =
  let body = List.filter (fun a -> not (is_truth a)) (Query.body q) in
  (* slot numbering: one register per body variable, in order of first
     occurrence in the original body (the order is irrelevant to the
     kernel; fixing it keeps plans reproducible) *)
  let slot_tbl = Hashtbl.create 16 in
  let rev_slots = ref [] in
  let slot_of v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slot_tbl in
        Hashtbl.add slot_tbl v s;
        rev_slots := v :: !rev_slots;
        s
  in
  List.iter
    (fun atom ->
      List.iter
        (function Term.Var v -> ignore (slot_of v) | Term.Const _ -> ())
        (Atom.args atom))
    body;
  let ordered = order_atoms db body in
  let bound = ref Sset.empty in
  let deps = ref [] in
  let steps =
    List.map
      (fun atom ->
        let pred = Atom.pred atom in
        let rel = relation pred in
        if not (List.mem_assoc pred !deps) then deps := (pred, rel) :: !deps;
        let args = Array.of_list (Atom.args atom) in
        (* bound positions (constants, or variables bound by earlier
           atoms in plan order) become the index key *)
        let keyed = Array.map
            (fun term ->
              match term with
              | Term.Const _ -> true
              | Term.Var v -> Sset.mem v !bound)
            args
        in
        let key_positions = ref [] and key_sources = ref [] in
        Array.iteri
          (fun i term ->
            if keyed.(i) then begin
              key_positions := i :: !key_positions;
              key_sources :=
                (match term with
                | Term.Const c -> Const c
                | Term.Var v -> Slot (slot_of v))
                :: !key_sources
            end)
          args;
        let key_positions = List.rev !key_positions in
        let key_sources = Array.of_list (List.rev !key_sources) in
        let seen_in_atom = Hashtbl.create 4 in
        let ops =
          Array.mapi
            (fun i term ->
              if keyed.(i) then Skip
              else
                match term with
                | Term.Const _ -> assert false (* constants are keyed *)
                | Term.Var v ->
                    let s = slot_of v in
                    if Hashtbl.mem seen_in_atom v then Check s
                    else begin
                      Hashtbl.add seen_in_atom v ();
                      Bind s
                    end)
            args
        in
        bound :=
          List.fold_left (fun s v -> Sset.add v s) !bound (Atom.var_list atom);
        {
          pred;
          rel;
          index =
            (if key_positions = [] then None
             else Some (index pred key_positions));
          key_sources;
          ops;
        })
      ordered
  in
  let head =
    Array.of_list
      (List.map
         (function
           | Term.Const c -> Const c
           | Term.Var v ->
               (* safety: every head variable occurs in the body, so it
                  already has a slot *)
               Slot (slot_of v))
         (Query.head q))
  in
  let head_prefix, positions = leading_head_positions (Query.head q) ordered in
  let outer_order =
    if positions = List.init (List.length positions) Fun.id then None
    else Some positions
  in
  {
    query = q;
    slots = Array.of_list (List.rev !rev_slots);
    steps = Array.of_list steps;
    head;
    head_prefix;
    outer_order;
    deps = !deps;
  }

let valid t db =
  List.for_all
    (fun (pred, rel) ->
      match R.Database.relation db pred with
      | Some rel' -> rel' == rel
      | None -> false)
    t.deps

let read regs = function Const v -> v | Slot s -> regs.(s)

(* An array literal is allocated inline, while [Array.make] calls into
   the runtime and each store after it passes the write barrier, so
   the usual head widths get literals. *)
let head_tuple t regs =
  match t.head with
  | [| a |] -> [| read regs a |]
  | [| a; b |] -> [| read regs a; read regs b |]
  | [| a; b; c |] -> [| read regs a; read regs b; read regs c |]
  | head ->
      let tuple = Array.make (Array.length head) R.Value.Null in
      for i = 0 to Array.length head - 1 do
        tuple.(i) <- read regs head.(i)
      done;
      tuple

(* A top-level loop, so a comparison allocates no closure. *)
let rec compare_head_from head regs prev i =
  if i = Array.length head then 0
  else
    match R.Value.compare (read regs head.(i)) prev.(i) with
    | 0 -> compare_head_from head regs prev (i + 1)
    | c -> if c > 0 then i + 1 else -(i + 1)

let compare_head t regs prev = compare_head_from t.head regs prev 0

(* A run's mutable state is its own: the register file, and for each
   step a key buffer and an answer slot, allocated once per run, so
   runs of one plan on several threads share nothing mutable. *)
let execute ?(head_order = false) t emit =
  let regs = Array.make (max 1 (Array.length t.slots)) R.Value.Null in
  let nsteps = Array.length t.steps in
  let keys =
    Array.map
      (fun st -> Array.make (Array.length st.key_sources) R.Value.Null)
      t.steps
  in
  let slots = Array.map (fun _ -> R.Index.matches ()) t.steps in
  (* [match_tuple] applies the register ops left to right; a failed
     [Check] abandons the candidate.  Partial [Bind]s of an abandoned
     candidate are harmless: deeper steps only run after a full match,
     and the next candidate re-binds the same slots. *)
  let rec match_tuple ops tuple regs p n =
    p = n
    ||
    match ops.(p) with
    | Skip -> match_tuple ops tuple regs (p + 1) n
    | Bind s ->
        regs.(s) <- R.Tuple.get tuple p;
        match_tuple ops tuple regs (p + 1) n
    | Check s ->
        R.Value.equal (R.Tuple.get tuple p) regs.(s)
        && match_tuple ops tuple regs (p + 1) n
  in
  let rec go i =
    if i = nsteps then emit regs
    else begin
      let st = t.steps.(i) in
      let ops = st.ops in
      let n = Array.length ops in
      match st.index with
      | Some idx ->
          let kb = keys.(i) and srcs = st.key_sources in
          for j = 0 to Array.length srcs - 1 do
            kb.(j) <- read regs srcs.(j)
          done;
          let m = slots.(i) in
          R.Index.probe idx kb m;
          let tuples = m.tuples in
          for j = m.first to m.stop - 1 do
            if match_tuple ops tuples.(j) regs 0 n then go (i + 1)
          done
      | None ->
          let arr =
            match t.outer_order with
            | Some positions when head_order && i = 0 ->
                R.Relation.scan_by st.rel positions
            | _ -> R.Relation.scan st.rel
          in
          for k = 0 to Array.length arr - 1 do
            if match_tuple ops arr.(k) regs 0 n then go (i + 1)
          done
    end
  in
  go 0

let pp ppf t =
  let pp_step ppf st =
    let keyed =
      Array.to_list st.key_sources
      |> List.map (function
           | Const v -> R.Value.to_string v
           | Slot s -> t.slots.(s))
    in
    if keyed = [] then Format.fprintf ppf "%s[scan]" st.pred
    else Format.fprintf ppf "%s[%s]" st.pred (String.concat "," keyed)
  in
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ⋈ ")
       pp_step)
    (Array.to_list t.steps)
