type t = Value.t array

let make vs = Array.of_list vs
let of_array a = a
let to_list = Array.to_list
let arity = Array.length

let get t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Tuple.get: index %d out of range" i)
  else t.(i)

let project t positions = Array.of_list (List.map (get t) positions)

(* A top-level loop rather than a local closure over [a] and [b]:
   comparisons run inside every set operation on extents, and a closure
   would be allocated per call. *)
let rec compare_from a b i n =
  if i = n then 0
  else
    match Value.compare a.(i) b.(i) with
    | 0 -> compare_from a b (i + 1) n
    | c -> c

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let equal a b = compare a b = 0

(* [Hashtbl.hash] samples only ~10 nodes of its argument, so wide tuples
   agreeing on a prefix would collide systematically (index buckets
   degrade to lists).  Fold every column instead; [Value.hash] is fine
   per value because values are shallow. *)
let hash t =
  let acc = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    acc := ((!acc * 31) + Value.hash t.(i)) land max_int
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Value.pp)
    (to_list t)

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

(* A height-balanced tree, as the standard library's sets are, with one
   constructor the standard library keeps private: {!Set.of_sorted}
   builds the tree of an ascending array in one pass, allocating one
   node per element and comparing nothing. *)
module Set = struct
  type elt = Value.t array
  type t = Empty | Node of { l : t; v : elt; r : t; h : int }

  let empty = Empty
  let height = function Empty -> 0 | Node { h; _ } -> h

  let create l v r =
    let hl = height l and hr = height r in
    Node { l; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

  (* [l] and [r] are balanced and their heights differ by at most 3:
     one single or double rotation restores a difference of at most 2. *)
  let bal l v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Node { l = ll; v = lv; r = lr; _ } when height ll >= height lr ->
          create ll lv (create lr v r)
      | Node { l = ll; v = lv; r = Node { l = lrl; v = lrv; r = lrr; _ }; _ } ->
          create (create ll lv lrl) lrv (create lrr v r)
      | _ -> assert false
    else if hr > hl + 2 then
      match r with
      | Node { l = rl; v = rv; r = rr; _ } when height rr >= height rl ->
          create (create l v rl) rv rr
      | Node { l = Node { l = rll; v = rlv; r = rlr; _ }; v = rv; r = rr; _ } ->
          create (create l v rll) rlv (create rlr rv rr)
      | _ -> assert false
    else create l v r

  (* An element already present keeps the stored one and the set is
     returned as is. *)
  let rec add x = function
    | Empty -> Node { l = Empty; v = x; r = Empty; h = 1 }
    | Node { l; v; r; _ } as t ->
        let c = compare x v in
        if c = 0 then t
        else if c < 0 then
          let l' = add x l in
          if l' == l then t else bal l' v r
        else
          let r' = add x r in
          if r' == r then t else bal l v r'

  let rec min_elt = function
    | Empty -> raise Not_found
    | Node { l = Empty; v; _ } -> v
    | Node { l; _ } -> min_elt l

  let rec remove_min = function
    | Empty -> Empty
    | Node { l = Empty; r; _ } -> r
    | Node { l; v; r; _ } -> bal (remove_min l) v r

  let rec remove x = function
    | Empty -> Empty
    | Node { l; v; r; _ } as t ->
        let c = compare x v in
        if c = 0 then
          match (l, r) with
          | Empty, t | t, Empty -> t
          | _ -> bal l (min_elt r) (remove_min r)
        else if c < 0 then
          let l' = remove x l in
          if l' == l then t else bal l' v r
        else
          let r' = remove x r in
          if r' == r then t else bal l v r'

  let rec find_opt x = function
    | Empty -> None
    | Node { l; v; r; _ } ->
        let c = compare x v in
        if c = 0 then Some v else find_opt x (if c < 0 then l else r)

  let rec mem x = function
    | Empty -> false
    | Node { l; v; r; _ } ->
        let c = compare x v in
        c = 0 || mem x (if c < 0 then l else r)

  let rec cardinal = function
    | Empty -> 0
    | Node { l; r; _ } -> cardinal l + 1 + cardinal r

  let rec iter f = function
    | Empty -> ()
    | Node { l; v; r; _ } ->
        iter f l;
        f v;
        iter f r

  let rec fold f s acc =
    match s with
    | Empty -> acc
    | Node { l; v; r; _ } -> fold f r (f v (fold f l acc))

  let elements s =
    let rec go acc = function
      | Empty -> acc
      | Node { l; v; r; _ } -> go (v :: go acc r) l
    in
    go [] s

  let of_sorted a n =
    let rec build lo hi =
      if lo >= hi then Empty
      else
        let mid = (lo + hi) lsr 1 in
        let l = build lo mid in
        create l a.(mid) (build (mid + 1) hi)
    in
    build 0 n

  (* The elements from some point on, ascending: each entry is an
     element, then the subtree of those just above it, then the rest. *)
  type enum = End | More of elt * t * enum

  let rec cons_enum s e =
    match s with Empty -> e | Node { l; v; r; _ } -> cons_enum l (More (v, r, e))

  let rec seq_of_enum e () =
    match e with
    | End -> Seq.Nil
    | More (v, r, e) -> Seq.Cons (v, seq_of_enum (cons_enum r e))

  let to_seq_from low s =
    let rec from s e =
      match s with
      | Empty -> e
      | Node { l; v; r; _ } ->
          let c = compare v low in
          if c = 0 then More (v, r, e)
          else if c < 0 then from r e
          else from l (More (v, r, e))
    in
    seq_of_enum (from s End)

  let equal a b =
    let rec go e1 e2 =
      match (e1, e2) with
      | End, End -> true
      | End, _ | _, End -> false
      | More (v1, r1, e1), More (v2, r2, e2) ->
          if v1 == v2 && r1 == r2 then go e1 e2
          else compare v1 v2 = 0 && go (cons_enum r1 e1) (cons_enum r2 e2)
    in
    a == b || go (cons_enum a End) (cons_enum b End)

  (* One merge of the two ascending walks.  Two versions of a relation
     share most of their subtrees, and the walks skip a subtree both
     reach at the same element. *)
  let elements_diff a b =
    let rec go acc e1 e2 =
      match (e1, e2) with
      | End, _ -> List.rev acc
      | More (v, r, e1), End -> go (v :: acc) (cons_enum r e1) End
      | More (v1, r1, e1'), More (v2, r2, e2') ->
          if v1 == v2 && r1 == r2 then go acc e1' e2'
          else
            let c = compare v1 v2 in
            if c = 0 then go acc (cons_enum r1 e1') (cons_enum r2 e2')
            else if c < 0 then go (v1 :: acc) (cons_enum r1 e1') e2
            else go acc e1 (cons_enum r2 e2')
    in
    if a == b then [] else go [] (cons_enum a End) (cons_enum b End)
end

module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
