val qualified : unit -> int
val own_only : unit -> int
val test_only : unit -> int
val opts : ?passed:int -> ?never:int -> unit -> int
