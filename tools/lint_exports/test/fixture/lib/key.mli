type t = int

val compare : t -> t -> int
val unused : t
