(** The GtoPdb-flavoured schema of the paper's running example, plus the
    wider drug-target schema its introduction sketches.

    Paper relations (§2, keys underlined there):
    {v
      Family(FID, FName, Desc)
      Committee(FID, PName)
      FamilyIntro(FID, Text)
    v}
    Extended relations, for the richer examples and the workload
    generator: [Target], [TargetFamily], [Contributor], [Reference]. *)

val family : Dc_relational.Schema.t
val contributor : Dc_relational.Schema.t

val all_schemas : Dc_relational.Schema.t list

val empty_database : unit -> Dc_relational.Database.t
(** All relations of {!all_schemas}, empty. *)
