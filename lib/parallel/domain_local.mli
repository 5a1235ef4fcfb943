(** State kept per domain for each of many owner values.

    Each application of {!Make} allocates one [Domain.DLS] key.  Under it
    every domain holds an ephemeron table from owners to that domain's
    state, so an owner that becomes unreachable takes its states with it
    even though the domains that touched it live on.  Owners are
    compared physically and hashed by their id.

    {!Make.get} is a lock-free table lookup.  Only a domain's first
    touch of an owner takes a lock, the domain's own, which keeps the
    domain's systhreads from racing on the table.  Nothing here
    synchronizes use of a state: systhreads on one domain share it. *)

module type OWNER = sig
  type t

  val id : t -> int
  (** Distinct for owners alive at the same time. *)
end

module Make (Owner : OWNER) (State : sig
  type t

  val create : Owner.t -> t
  (** Called once per (domain, owner) pair, on that domain, with the
      domain's lock held. *)
end) : sig
  val get : Owner.t -> State.t
  (** This domain's state for the owner, created on first touch. *)
end
