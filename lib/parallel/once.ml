(* The value is published through an atomic, so a forcer that finds it
   set reads it without the lock; the lock is taken only while the cell
   is empty, and the emptiness is rechecked under it. *)

type 'a t = {
  value : 'a option Atomic.t;
  compute : unit -> 'a;
  mu : Mutex.t;
}

let make compute = { value = Atomic.make None; compute; mu = Mutex.create () }

let of_value v =
  {
    value = Atomic.make (Some v);
    compute = (fun () -> v);
    mu = Mutex.create ();
  }

let force c =
  match Atomic.get c.value with
  | Some v -> v
  | None ->
      Mutex.protect c.mu (fun () ->
          match Atomic.get c.value with
          | Some v -> v
          | None ->
              let v = c.compute () in
              Atomic.set c.value (Some v);
              v)
