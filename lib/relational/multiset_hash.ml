(* Four 32-bit lanes of a 128-bit MD5, each summed modulo 2^32: the
   lane-wise modular sum of LtHash over Bellare and Micciancio's
   additive incremental hashing.  Lanes are kept as native ints in
   [0, 2^32), so adding and subtracting allocate one small record and
   no boxed integers. *)
type t = { l0 : int; l1 : int; l2 : int; l3 : int }

let mask = 0xFFFF_FFFF
let zero = { l0 = 0; l1 = 0; l2 = 0; l3 = 0 }

let add a b =
  {
    l0 = (a.l0 + b.l0) land mask;
    l1 = (a.l1 + b.l1) land mask;
    l2 = (a.l2 + b.l2) land mask;
    l3 = (a.l3 + b.l3) land mask;
  }

let sub a b =
  {
    l0 = (a.l0 - b.l0) land mask;
    l1 = (a.l1 - b.l1) land mask;
    l2 = (a.l2 - b.l2) land mask;
    l3 = (a.l3 - b.l3) land mask;
  }

(* The injective encoding: the arity, then per value a one-byte type
   tag and a self-delimiting payload — integers and timestamps as eight
   little-endian bytes, floats as the eight bytes of their IEEE bits,
   strings length-prefixed.  A decoder could rebuild the tuple, so two
   tuples encode alike only when they are the same tuple, bit for
   bit. *)
let encode buf (t : Tuple.t) =
  Buffer.add_int64_le buf (Int64.of_int (Array.length t));
  Array.iter
    (fun (v : Value.t) ->
      match v with
      | Int i ->
          Buffer.add_char buf 'i';
          Buffer.add_int64_le buf (Int64.of_int i)
      | Float f ->
          Buffer.add_char buf 'f';
          Buffer.add_int64_le buf (Int64.bits_of_float f)
      | Str s ->
          Buffer.add_char buf 's';
          Buffer.add_int64_le buf (Int64.of_int (String.length s));
          Buffer.add_string buf s
      | Bool b -> Buffer.add_string buf (if b then "b\001" else "b\000")
      | Timestamp s ->
          Buffer.add_char buf 't';
          Buffer.add_int64_le buf (Int64.of_int s)
      | Null -> Buffer.add_char buf 'n')
    t

let lane d i = Int32.to_int (String.get_int32_le d (4 * i)) land mask

let of_digest d = { l0 = lane d 0; l1 = lane d 1; l2 = lane d 2; l3 = lane d 3 }

let tuple_with buf t =
  Buffer.clear buf;
  encode buf t;
  of_digest (Digest.string (Buffer.contents buf))

let of_tuple t = tuple_with (Buffer.create 64) t

let of_tuples iter =
  let buf = Buffer.create 64 in
  let acc = ref zero in
  iter (fun t -> acc := add !acc (tuple_with buf t));
  !acc

let add_to_buffer buf h =
  Buffer.add_int32_le buf (Int32.of_int h.l0);
  Buffer.add_int32_le buf (Int32.of_int h.l1);
  Buffer.add_int32_le buf (Int32.of_int h.l2);
  Buffer.add_int32_le buf (Int32.of_int h.l3)
