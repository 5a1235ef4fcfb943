module C = Dc_citation
module Paper_views = Dc_gtopdb.Paper_views

let parse = Dc_cq.Parser.parse_query_exn

let blurb = Paper_views.gtopdb_blurb

let unparam_citation name =
  parse (Printf.sprintf "C%s(D) :- D=\"%s\"" name blurb)

let v_targets =
  C.Citation_view.make_exn
    ~view:(parse "VTargets(TID,TName,TType) :- Target(TID,TName,TType)")
    ~citations:[ unparam_citation "VTargets" ]
    ()

let v_target_families =
  C.Citation_view.make_exn
    ~view:
      (parse
         "lambda FID. VTargetFam(FID,TID,TName) :- TargetFamily(TID,FID), \
          Target(TID,TName,TType)")
    ~citations:
      [ parse "lambda FID. CVTargetFam(FID,PName) :- Committee(FID,PName)" ]
    ()

let v_committee =
  C.Citation_view.make_exn
    ~view:(parse "lambda FID. VCommittee(FID,PName) :- Committee(FID,PName)")
    ~citations:
      [
        parse
          "lambda FID. CVCommittee(FID,FName) :- Family(FID,FName,Desc)";
      ]
    ()

let v_references =
  C.Citation_view.make_exn
    ~view:
      (parse
         "lambda FID. VRefs(FID,Title,Year) :- Reference(RID,FID,Title,Year)")
    ~citations:
      [ parse "lambda FID. CVRefs(FID,FName) :- Family(FID,FName,Desc)" ]
    ()

let v_family_full =
  C.Citation_view.make_exn
    ~view:
      (parse
         "VFamilyFull(FID,FName,Text) :- Family(FID,FName,Desc), \
          FamilyIntro(FID,Text)")
    ~citations:[ unparam_citation "VFamilyFull" ]
    ()

let all =
  Paper_views.all
  @ [ v_targets; v_target_families; v_committee; v_references; v_family_full ]

let take n =
  let n = max 0 (min n (List.length all)) in
  List.filteri (fun i _ -> i < n) all

let synthetic ~count =
  (* Six view shapes, cycled.  The mix is chosen to differentiate the
     rewriting strategies in experiment E2:
     - shapes 0/1 answer Family subgoals (unparameterized/parameterized);
     - shape 2 is a join view covering Family AND Committee at once
       (MiniCon covers both with one occurrence; the bucket product
       uses it once per bucket);
     - shape 3 hides FID, so it can never join — the exposure filter
       removes it from buckets, but the naive strategy still generates
       (and wastes verification on) candidates that use it;
     - shape 4 answers FamilyIntro;
     - shape 5 is a join view that hides the join variable FID: only a
       single occurrence covering both subgoals works, which MiniCon
       finds through coverage closure and the bucket product cannot. *)
  List.init count (fun i ->
      let name = Printf.sprintf "SynV%d" i in
      let view, citation =
        match i mod 6 with
        | 0 ->
            ( parse
                (Printf.sprintf "%s(FID,FName,Desc) :- Family(FID,FName,Desc)"
                   name),
              unparam_citation name )
        | 1 ->
            ( parse
                (Printf.sprintf
                   "lambda FID. %s(FID,FName,Desc) :- Family(FID,FName,Desc)"
                   name),
              parse
                (Printf.sprintf
                   "lambda FID. C%s(FID,PName) :- Committee(FID,PName)" name)
            )
        | 2 ->
            ( parse
                (Printf.sprintf
                   "%s(FID,FName,PName) :- Family(FID,FName,Desc), \
                    Committee(FID,PName)"
                   name),
              unparam_citation name )
        | 3 ->
            ( parse
                (Printf.sprintf "%s(FName,Desc) :- Family(FID,FName,Desc)" name),
              unparam_citation name )
        | 4 ->
            ( parse (Printf.sprintf "%s(FID,Text) :- FamilyIntro(FID,Text)" name),
              unparam_citation name )
        | _ ->
            (* join view that hides the join variable: only usable when
               one occurrence covers both subgoals (MiniCon closure);
               the bucket algorithm cannot use it at all *)
            ( parse
                (Printf.sprintf
                   "%s(FName,PName) :- Family(FID,FName,Desc), \
                    Committee(FID,PName)"
                   name),
              unparam_citation name )
      in
      C.Citation_view.make_exn ~view ~citations:[ citation ] ())
