open Fx.B
module M = Fx.C
module D = struct include Fx.D end
module S = Set.Make (Fx.Key)

let () =
  print_int
    (Fx.A.qualified () + opened () + M.aliased () + D.included ()
    + S.cardinal (S.singleton 1)
    + Fx.A.opts ~passed:1 ())
