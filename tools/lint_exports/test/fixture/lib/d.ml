let included () = 1
