(** Static validation of queries against a database schema.

    The evaluator treats a body atom whose predicate is missing as an
    error, but an atom with the {e wrong arity} would silently match
    nothing; checking queries once against the catalog turns both
    mistakes into early, named errors.  Type mismatches between
    constants and column types are reported too. *)

type problem =
  | Unknown_relation of string
  | Arity_mismatch of { pred : string; expected : int; actual : int }
  | Type_mismatch of {
      pred : string;
      position : int;
      expected : Dc_relational.Value.ty;
      value : Dc_relational.Value.t;
    }

val problem_to_string : problem -> string

val check_query : Dc_relational.Database.t -> Query.t -> problem list

val check_query_res : Dc_relational.Database.t -> Query.t -> (unit, string) result
(** [Error] carries all problems, newline-separated. *)
