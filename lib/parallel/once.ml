(* The value is published through an atomic, so a forcer that finds it
   set reads it without the lock; the lock is taken only while the cell
   is empty, and the emptiness is rechecked under it.  The computation
   is dropped once the value is set, so whatever it captured can be
   collected. *)

type 'a t = {
  value : 'a option Atomic.t;
  mutable compute : (unit -> 'a) option;
  mu : Mutex.t;
}

let make compute =
  { value = Atomic.make None; compute = Some compute; mu = Mutex.create () }

let of_value v =
  { value = Atomic.make (Some v); compute = None; mu = Mutex.create () }

let peek c = Atomic.get c.value

let force c =
  match Atomic.get c.value with
  | Some v -> v
  | None ->
      Mutex.protect c.mu (fun () ->
          match Atomic.get c.value with
          | Some v -> v
          | None ->
              (* an empty cell still holds its computation *)
              let v = Option.get c.compute () in
              Atomic.set c.value (Some v);
              c.compute <- None;
              v)
