module Value = Dc_relational.Value

type leaf = { view : string; params : (string * Value.t) list }

type t =
  | Leaf of leaf
  | Joint of t list
  | Alt of t list
  | AltR of t list
  | Agg of t list

let leaf ~view ~params = Leaf { view; params }

let compare_leaf a b =
  match String.compare a.view b.view with
  | 0 ->
      List.compare
        (fun (n1, v1) (n2, v2) ->
          match String.compare n1 n2 with
          | 0 -> Value.compare v1 v2
          | c -> c)
        a.params b.params
  | c -> c

let tag = function
  | Leaf _ -> 0
  | Joint _ -> 1
  | Alt _ -> 2
  | AltR _ -> 3
  | Agg _ -> 4

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Leaf la, Leaf lb -> compare_leaf la lb
    | Joint xs, Joint ys
    | Alt xs, Alt ys
    | AltR xs, AltR ys
    | Agg xs, Agg ys ->
        List.compare compare xs ys
    | a, b -> Int.compare (tag a) (tag b)

let with_children e xs =
  match e with
  | Leaf _ -> e
  | Joint _ -> Joint xs
  | Alt _ -> Alt xs
  | AltR _ -> AltR xs
  | Agg _ -> Agg xs

(* One level of normalization: the children are already normal, so a
   child is only ever flattened into a parent of the same operator. *)
let normalize_node e =
  match e with
  | Leaf _ -> e
  | Joint xs | Alt xs | AltR xs | Agg xs -> (
      let xs =
        List.concat_map
          (fun c ->
            match c with
            | (Joint ys | Alt ys | AltR ys | Agg ys) when tag c = tag e -> ys
            | _ -> [ c ])
          xs
      in
      match List.sort_uniq compare xs with [ x ] -> x | xs -> with_children e xs)

let joint es = normalize_node (Joint es)
let alt es = normalize_node (Alt es)
let alt_r es = normalize_node (AltR es)
let agg es = normalize_node (Agg es)

let rec collect_leaves acc = function
  | Leaf l -> l :: acc
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      List.fold_left collect_leaves acc xs

let leaves e =
  collect_leaves [] e |> List.sort_uniq compare_leaf

let size e = List.length (leaves e)

let equal a b = compare a b = 0

let pp_leaf ppf l =
  if l.params = [] then Format.fprintf ppf "C%s" l.view
  else
    Format.fprintf ppf "C%s(%a)" l.view
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf (_, v) -> Value.pp ppf v))
      l.params

(* Precedence: Agg < AltR < Alt < Joint < Leaf.  A compound child is
   parenthesized when its operator binds no tighter than its parent's,
   and always under +R / Agg — matching the paper's
   "(CV1(11)·CV3 + CV1(12)·CV3) +R (CV2·CV3)". *)
let level = function
  | Leaf _ -> 4
  | Joint _ -> 3
  | Alt _ -> 2
  | AltR _ -> 1
  | Agg _ -> 0

let is_compound = function
  | Leaf _ -> false
  | Joint xs | Alt xs | AltR xs | Agg xs -> List.length xs > 1

let rec pp_node ppf node =
  let sep = function
    | Joint _ -> "·"
    | Alt _ -> " + "
    | AltR _ -> " +R "
    | Agg _ -> " ⊕ "
    | Leaf _ -> ""
  in
  match node with
  | Leaf l -> pp_leaf ppf l
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      let pp_child ppf child =
        let wrap =
          is_compound child
          && (level child <= level node || level node <= 1)
        in
        if wrap then Format.fprintf ppf "(%a)" pp_node child
        else pp_node ppf child
      in
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf (sep node))
        pp_child ppf xs

let pp = pp_node
let to_string e = Format.asprintf "%a" pp e
