let opened () = 1
