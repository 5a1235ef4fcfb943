(* Benchmark harness.

   `dune exec bench/main.exe` runs the experiment tables E1-E10 (the
   reproduction targets of DESIGN.md) followed by a bechamel
   micro-benchmark suite of the core operations.

   `dune exec bench/main.exe -- --quick` skips the bechamel suite.
   `dune exec bench/main.exe -- E3 E6` runs selected experiments; an
   unknown name exits 2 without running any. *)

open Bechamel
open Toolkit

let micro_tests () =
  let paper_db = Dc_gtopdb.Paper_views.example_database () in
  let engine = Dc_citation.Engine.create paper_db Dc_gtopdb.Paper_views.all in
  let q1 = Dc_cq.Parser.parse_query_exn "Q(X) :- R(X,Y), S(Y,Z)" in
  let q2 = Dc_cq.Parser.parse_query_exn "Q(A) :- R(A,B), S(B,C)" in
  let views =
    Dc_rewriting.View.Set.of_list
      (List.map Dc_citation.Citation_view.view Dc_gtopdb.Paper_views.all)
  in
  let gen_db =
    Dc_gtopdb.Generator.generate ~seed:1
      ~config:(Dc_gtopdb.Generator.scale Dc_gtopdb.Generator.default_config ~families:500)
      ()
  in
  Test.make_grouped ~name:"core" ~fmt:"%s/%s"
    [
      Test.make ~name:"parse"
        (Staged.stage (fun () ->
             Dc_cq.Parser.parse_query_exn
               "Q(FName) :- Family(FID,FName,Desc), FamilyIntro(FID,Text)"));
      Test.make ~name:"containment"
        (Staged.stage (fun () -> Dc_cq.Containment.equivalent q1 q2));
      Test.make ~name:"rewrite-minicon"
        (Staged.stage (fun () ->
             Dc_rewriting.Rewrite.search views Dc_gtopdb.Paper_views.query_q));
      Test.make ~name:"eval-500fam"
        (Staged.stage (fun () ->
             Dc_cq.Eval.run gen_db Dc_gtopdb.Paper_views.query_q));
      Test.make ~name:"cite-paper-db"
        (Staged.stage (fun () ->
             Dc_citation.Engine.cite engine Dc_gtopdb.Paper_views.query_q));
      Test.make ~name:"poly-eval"
        (Staged.stage
           (let p =
              Dc_repro.Annotated.citation_polynomial
                (Dc_citation.Cite_expr.alt
                   (List.init 20 (fun i ->
                        Dc_citation.Cite_expr.joint
                          [
                            Dc_citation.Cite_expr.leaf ~view:"V1"
                              ~params:[ ("FID", Dc_relational.Value.Int i) ];
                            Dc_citation.Cite_expr.leaf ~view:"V3" ~params:[];
                          ])))
            in
            fun () ->
              Dc_provenance.Polynomial.eval
                (module Dc_provenance.Semiring.Counting)
                (fun _ -> 1)
                p));
    ]

let run_micro () =
  Util.hr "Bechamel micro-benchmarks (monotonic clock per run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw_results = Benchmark.all cfg instances (micro_tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let () =
    Bechamel_notty.Unit.add Instance.monotonic_clock
      (Measure.unit Instance.monotonic_clock)
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let micro_only = List.mem "--micro" args in
  let selected =
    List.filter (fun a -> a <> "--quick" && a <> "--micro") args
  in
  let experiments =
    [
      ("E1", Experiments.e1);
      ("E2", Experiments.e2);
      ("E3", Experiments.e3);
      ("E4", Experiments.e4);
      ("E5", Experiments.e5);
      ("E6", Experiments.e6);
      ("E7", Experiments.e7);
      ("E8", Experiments.e8);
      ("E9", Experiments.e9);
      ("E10", Experiments.e10);
      ("E11", Experiments.e11);
      ("E12", Experiments.e12);
      ("E15", Experiments.e15);
      ("E16", Experiments.e16);
      ("E19", Experiments.e19);
      ("E20", Experiments.e20);
      ("E22", Experiments.e22);
    ]
  in
  let known a = List.mem_assoc (String.uppercase_ascii a) experiments in
  (match List.filter (fun a -> not (known a)) selected with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment %s (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat " " (List.map fst experiments));
      exit 2);
  let to_run =
    if selected = [] then experiments
    else
      List.filter
        (fun (name, _) ->
          List.exists (fun a -> String.uppercase_ascii a = name) selected)
        experiments
  in
  if not micro_only then begin
    (* Each experiment starts on a compacted heap, so its timings do not
       pay the major-GC work the garbage of the one before it left. *)
    List.iter
      (fun (_, f) ->
        Gc.compact ();
        f ())
      to_run;
    (* machine-readable aggregate of every engine's counters/timers *)
    Printf.printf "\nMETRICS %s\n"
      (Dc_citation.Metrics.to_json Dc_citation.Metrics.default)
  end;
  if micro_only || ((not quick) && selected = []) then run_micro ()
