val aliased : unit -> int
