let aliased () = 1
