(** Candidate entries shared by the Bucket and MiniCon enumerators.

    An entry records that one freshened occurrence of a view can cover a
    set of subgoals of the query, together with the view atom to place in
    the rewriting.  Combining entries whose coverage partitions the
    query's subgoals yields candidate rewritings. *)

type t = {
  view : View.t;  (** the original (unfreshened) view *)
  atom : Dc_cq.Atom.t;  (** the view atom to appear in the rewriting *)
  covered : int list;  (** subgoal indices of the query this entry covers *)
}

val base_entry : Dc_cq.Query.t -> int -> t option
(** The identity entry covering subgoal [i] by the base atom itself;
    used for partial rewritings.  [None] when [i] is out of range. *)

val of_classes :
  ?check_exposure:bool ->
  query:Dc_cq.Query.t ->
  view:View.t ->
  fresh:View.t ->
  classes:Dc_cq.Unify.Classes.t ->
  covered:int list ->
  unit ->
  t option
(** Builds the view atom from unification classes: every argument is the
    class representative of the corresponding head term of [fresh],
    preferring the query's own terms so joins connect across entries.
    Returns [None] when a distinguished variable of a covered subgoal is
    not exposed through the view head (the entry could never be part of
    an equivalent rewriting). *)
