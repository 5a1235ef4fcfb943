(** A value computed at most once, on first demand, safely from any
    thread or domain.

    [Lazy] is not a fit for values shared across domains: forcing a
    lazy value that another domain is already forcing raises
    [CamlinternalLazy.Undefined] instead of waiting.  A [t] guards its
    computation with a mutex: concurrent first forcers wait for the
    one that computes, and every forcer then reads the same value.  A
    computation that raises leaves the cell empty and re-raises, so a
    later force retries instead of failing forever.  The first
    completed force drops the computation, so a value captured only by
    it becomes collectable.

    The computation runs with the cell's mutex held.  It may force
    other cells, but cells must never be forced in a cycle, and a
    caller must not force a cell while holding a lock that the
    computation also takes. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** An empty cell that computes its value on first {!force}. *)

val of_value : 'a -> 'a t
(** A cell that already holds the value. *)

val peek : 'a t -> 'a option
(** The value if a force has completed; never computes or waits. *)

val force : 'a t -> 'a
(** The cell's value, computed now if no earlier force completed.
    After the first completed force this is one atomic read. *)
