module Value = Dc_relational.Value

type t = {
  view : string;
  params : (string * Value.t) list;
  snippets : Snippet.t list;
}

let make ~view ~params ~snippets =
  { view; params; snippets = List.sort_uniq Snippet.compare snippets }

let view c = c.view
let params c = c.params
let snippets c = c.snippets

let merge a b =
  make
    ~view:(a.view ^ "·" ^ b.view)
    ~params:(a.params @ b.params)
    ~snippets:(a.snippets @ b.snippets)

let key c =
  Format.asprintf "%s(%s)" c.view
    (String.concat ","
       (List.map (fun (n, v) -> n ^ "=" ^ Value.to_string v) c.params))

let compare_params =
  List.compare (fun (n1, v1) (n2, v2) ->
      match String.compare n1 n2 with
      | 0 -> Value.compare v1 v2
      | c -> c)

let compare a b =
  match String.compare a.view b.view with
  | 0 -> (
      match compare_params a.params b.params with
      | 0 -> List.compare Snippet.compare a.snippets b.snippets
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf c =
  Format.fprintf ppf "@[<2>%s:@ %a@]" (key c)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Snippet.pp)
    c.snippets

module Set = struct
  type citation = t
  type nonrec t = t list

  let of_list cs = List.sort_uniq compare cs

  (* Both operands are sorted and duplicate-free: one linear merge, which
     keeps [a]'s element of an equal pair. *)
  let union a b =
    let rec merge a b acc =
      match (a, b) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | x :: a', y :: b' ->
          let c = compare x y in
          if c < 0 then merge a' b (x :: acc)
          else if c > 0 then merge a b' (y :: acc)
          else merge a' b' (x :: acc)
    in
    merge a b []

  (* Folding [union] from the left copies the growing accumulator at
     every step, quadratic in the number of sets.  Merging neighbours in
     rounds copies each element once per round instead: O(n log k) for
     [k] sets of [n] elements in all.  Each round keeps the sets in
     order, so an equal pair resolves to the earlier set's element, as
     the left fold does. *)
  let rec union_all = function
    | [] -> []
    | [ s ] -> s
    | sets ->
        let rec round acc = function
          | a :: b :: rest -> round (union a b :: acc) rest
          | [ a ] -> List.rev (a :: acc)
          | [] -> List.rev acc
        in
        union_all (round [] sets)

  let join a b =
    match (a, b) with
    | [], other | other, [] -> other
    | a, b ->
        of_list (List.concat_map (fun ca -> List.map (merge ca) b) a)

  let size = List.length

  let canonical_text set =
    String.concat "\n"
      (List.map
         (fun c ->
           key c ^ "|"
           ^ String.concat ";"
               (List.map
                  (fun s ->
                    Snippet.source s ^ ":"
                    ^ String.concat ","
                        (List.map
                           (fun (n, v) -> n ^ "=" ^ Value.to_string v)
                           (Snippet.fields s)))
                  c.snippets))
         set)

  let content_key set =
    Printf.sprintf "cite:%s"
      (String.sub (Digest.to_hex (Digest.string (canonical_text set))) 0 12)

  let pp ppf cs =
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp)
      cs
end
