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

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
