type t = int

let compare = Int.compare
let unused = 0
