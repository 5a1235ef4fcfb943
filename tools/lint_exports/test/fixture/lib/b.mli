val opened : unit -> int
