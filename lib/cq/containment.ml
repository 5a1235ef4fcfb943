module R = Dc_relational

let contained q1 q2 =
  Dc_parallel.Metrics.(record Key.containment_checks);
  Homomorphism.exists ~src:q2 ~dst:q1
let equivalent q1 q2 = contained q1 q2 && contained q2 q1
let witness q1 q2 = Homomorphism.find ~src:q2 ~dst:q1

let freeze_term = function
  | Term.Const c -> c
  | Term.Var v -> R.Value.Str ("?" ^ v)

let canonical_database q =
  let db =
    List.fold_left
      (fun db atom ->
        let pred = Atom.pred atom in
        let db =
          if R.Database.mem_relation db pred then db
          else
            R.Database.create_relation db
              (R.Schema.make pred
                 (List.mapi
                    (fun i _ -> R.Schema.attr (Printf.sprintf "a%d" i))
                    (Atom.args atom)))
        in
        R.Database.insert db pred
          (R.Tuple.make (List.map freeze_term (Atom.args atom))))
      R.Database.empty (Query.body q)
  in
  (db, R.Tuple.make (List.map freeze_term (Query.head q)))
