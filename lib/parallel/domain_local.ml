module type OWNER = sig
  type t

  val id : t -> int
end

module Make (Owner : OWNER) (State : sig
  type t

  val create : Owner.t -> t
end) =
struct
  module Tbl = Ephemeron.K1.Make (struct
    type t = Owner.t

    let equal = ( == )
    let hash = Owner.id
  end)

  (* The table's buckets are immutable lists, so a lookup racing an
     insert by another systhread of the same domain sees a consistent
     table, at worst without the new entry; inserts take [mu]. *)
  type local = { mu : Mutex.t; states : State.t Tbl.t }

  let key =
    Domain.DLS.new_key (fun () ->
        { mu = Mutex.create (); states = Tbl.create 16 })

  let get owner =
    let l = Domain.DLS.get key in
    match Tbl.find_opt l.states owner with
    | Some s -> s
    | None ->
        Mutex.protect l.mu (fun () ->
            match Tbl.find_opt l.states owner with
            | Some s -> s
            | None ->
                let s = State.create owner in
                Tbl.add l.states owner s;
                s)
end
