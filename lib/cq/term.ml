module Value = Dc_relational.Value

type t = Var of string | Const of Value.t

let str s = Const (Value.Str s)
let is_var = function Var _ -> true | Const _ -> false
let value = function Const c -> Some c | Var _ -> None

let compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Const x, Const y -> Value.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Value.pp ppf c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
