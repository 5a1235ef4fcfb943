module Value = Dc_relational.Value

type t = { source : string; fields : (string * Value.t) list }

let make ~source fields = { source; fields }
let source s = s.source
let fields s = s.fields

let compare a b =
  match String.compare a.source b.source with
  | 0 ->
      List.compare
        (fun (n1, v1) (n2, v2) ->
          match String.compare n1 n2 with
          | 0 -> Value.compare v1 v2
          | c -> c)
        a.fields b.fields
  | c -> c

let pp ppf s =
  let pp_field ppf (n, v) = Format.fprintf ppf "%s=%a" n Value.pp v in
  Format.fprintf ppf "%s{%a}" s.source
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_field)
    s.fields

let of_tuple ~source names tuple =
  make ~source (List.combine names (Dc_relational.Tuple.to_list tuple))
