type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Timestamp of int
  | Null

type ty = TInt | TFloat | TStr | TBool | TTimestamp | TAny

let type_of = function
  | Int _ -> TInt
  | Float _ -> TFloat
  | Str _ -> TStr
  | Bool _ -> TBool
  | Timestamp _ -> TTimestamp
  | Null -> TAny

let conforms v ty =
  match (v, ty) with
  | Null, _ -> true
  | _, TAny -> true
  | v, ty -> type_of v = ty

(* Rank orders values of distinct types so that [compare] is total. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Timestamp _ -> 4
  | Str _ -> 5

(* Physically equal values are equal: consecutive emissions of one
   outer tuple share its values, so grouping answers meets this case on
   most of its comparisons. *)
let compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Int x, Int y -> Int.compare x y
    | Float x, Float y -> Float.compare x y
    | Str x, Str y -> String.compare x y
    | Bool x, Bool y -> Bool.compare x y
    | Timestamp x, Timestamp y -> Int.compare x y
    | Null, Null -> 0
    | a, b -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Index probes hash their keys, and join keys are mostly ints: an int
   hashes without a call into the runtime's generic hash (the multiply
   spreads it, the shift folds its high bits into the low ones a table
   indexes by), and a string is hashed directly, not through the
   variant.  Equal values hash equal: [Hashtbl.hash] already maps
   [0.0]/[-0.0] and every NaN together, as [compare] does. *)
let hash = function
  | Int i ->
      let h = i * 0x9E3779B97F4A7C1 in
      (h lxor (h lsr 29)) land max_int
  | Str s -> Hashtbl.hash s
  | v -> Hashtbl.hash v

let pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b
  | Timestamp s -> Format.fprintf ppf "@%d" s
  | Null -> Format.pp_print_string ppf "NULL"

(* [Int.to_string]'s digits, written directly: it interprets a printf
   format on every call, and digests convert every stored integer. *)
let decimal i =
  if i = min_int then Int.to_string i
  else
    let rec width n w = if n < 10 then w + 1 else width (n / 10) (w + 1) in
    let n = abs i in
    let len = width n (if i < 0 then 1 else 0) in
    let b = Bytes.create len in
    let rec fill n pos =
      Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (n mod 10)));
      if n >= 10 then fill (n / 10) (pos - 1)
    in
    fill n (len - 1);
    if i < 0 then Bytes.unsafe_set b 0 '-';
    Bytes.unsafe_to_string b

(* The same text [pp] prints (strings unquoted), without a formatter:
   fixity digests render every stored value through this. *)
let to_string = function
  | Str s -> s
  | Int i -> decimal i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> Bool.to_string b
  | Timestamp s -> "@" ^ decimal s
  | Null -> "NULL"

let pp_ty ppf ty =
  Format.pp_print_string ppf
    (match ty with
    | TInt -> "int"
    | TFloat -> "float"
    | TStr -> "string"
    | TBool -> "bool"
    | TTimestamp -> "timestamp"
    | TAny -> "any")

let ty_to_string ty = Format.asprintf "%a" pp_ty ty

(* [String.uppercase_ascii s = "NULL"], allocating nothing. *)
let reads_as_null s =
  String.length s = 4
  && Char.uppercase_ascii (String.unsafe_get s 0) = 'N'
  && Char.uppercase_ascii (String.unsafe_get s 1) = 'U'
  && Char.uppercase_ascii (String.unsafe_get s 2) = 'L'
  && Char.uppercase_ascii (String.unsafe_get s 3) = 'L'

let of_string ty s =
  if reads_as_null s then Ok Null
  else
    match ty with
    | TInt -> (
        match int_of_string_opt s with
        | Some i -> Ok (Int i)
        | None -> Error (Printf.sprintf "not an int: %S" s))
    | TFloat -> (
        match float_of_string_opt s with
        | Some f -> Ok (Float f)
        | None -> Error (Printf.sprintf "not a float: %S" s))
    | TBool -> (
        match bool_of_string_opt (String.lowercase_ascii s) with
        | Some b -> Ok (Bool b)
        | None -> Error (Printf.sprintf "not a bool: %S" s))
    | TTimestamp -> (
        (* accept both bare seconds and the printed "@seconds" form so
           CSV round-trips *)
        let body =
          if String.length s > 0 && s.[0] = '@' then
            String.sub s 1 (String.length s - 1)
          else s
        in
        match int_of_string_opt body with
        | Some i -> Ok (Timestamp i)
        | None -> Error (Printf.sprintf "not a timestamp: %S" s))
    | TStr | TAny -> Ok (Str s)

let ty_of_string = function
  | "int" -> Ok TInt
  | "float" -> Ok TFloat
  | "string" | "str" -> Ok TStr
  | "bool" -> Ok TBool
  | "timestamp" -> Ok TTimestamp
  | "any" -> Ok TAny
  | s -> Error (Printf.sprintf "unknown type: %S" s)
