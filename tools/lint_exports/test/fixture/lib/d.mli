val included : unit -> int
