let run () = Fx.A.test_only ()
