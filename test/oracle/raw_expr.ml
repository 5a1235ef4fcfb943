module X = Dc_citation.Cite_expr
module Value = Dc_relational.Value

type t =
  | Leaf of X.leaf
  | Joint of t list
  | Alt of t list
  | AltR of t list
  | Agg of t list

let compare_leaf (a : X.leaf) (b : X.leaf) =
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
  match (a, b) with
  | Leaf la, Leaf lb -> compare_leaf la lb
  | Joint xs, Joint ys | Alt xs, Alt ys | AltR xs, AltR ys | Agg xs, Agg ys ->
      List.compare compare xs ys
  | a, b -> Int.compare (tag a) (tag b)

let with_children e xs =
  match e with
  | Leaf _ -> e
  | Joint _ -> Joint xs
  | Alt _ -> Alt xs
  | AltR _ -> AltR xs
  | Agg _ -> Agg xs

(* The literal normalizer: every node is normalized over its normalized
   children.  It shares no code with Cite_expr's constructors. *)
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

let rec normalize e =
  match e with
  | Leaf _ -> e
  | Joint xs | Alt xs | AltR xs | Agg xs ->
      normalize_node (with_children e (List.map normalize xs))

let rec of_expr : X.t -> t = function
  | X.Leaf l -> Leaf l
  | X.Joint xs -> Joint (List.map of_expr xs)
  | X.Alt xs -> Alt (List.map of_expr xs)
  | X.AltR xs -> AltR (List.map of_expr xs)
  | X.Agg xs -> Agg (List.map of_expr xs)

let rec to_expr = function
  | Leaf l -> X.leaf ~view:l.view ~params:l.params
  | Joint xs -> X.joint (List.map to_expr xs)
  | Alt xs -> X.alt (List.map to_expr xs)
  | AltR xs -> X.alt_r (List.map to_expr xs)
  | Agg xs -> X.agg (List.map to_expr xs)
