let own_only () = 1
let qualified () = own_only () + 1
let test_only () = 3
let opts ?(passed = 0) ?(never = 0) () = passed + never
