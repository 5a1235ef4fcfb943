(* Golden fixity digests.  Snapshots in existing data directories carry
   [Fixity.digest_db] values and recovery re-verifies them, so the
   digest of a given database must never change.  The hex strings below
   were produced by the Format-based value rendering the digest used
   originally; any change to the canonical form fails here instead of
   orphaning stored snapshots. *)

open Testutil
module R = Dc_relational
module V = Dc_relational.Value
module F = Dc_citation.Fixity

(* The rendering the digest was defined with: every non-string value
   printed through [Format] exactly as [Value.pp] printed it. *)
let format_oracle (v : V.t) =
  let pp ppf = function
    | V.Int i -> Format.pp_print_int ppf i
    | V.Float f -> Format.fprintf ppf "%g" f
    | V.Str s -> Format.fprintf ppf "%S" s
    | V.Bool b -> Format.pp_print_bool ppf b
    | V.Timestamp s -> Format.fprintf ppf "@%d" s
    | V.Null -> Format.pp_print_string ppf "NULL"
  in
  Format.asprintf "%a" pp v

let edge_values =
  [
    V.Int 0; V.Int (-42); V.Int 7; V.Int max_int; V.Int min_int;
    V.Float 0.; V.Float (-0.); V.Float 1.; V.Float (-1.5); V.Float 0.1;
    V.Float (1. /. 3.); V.Float 123456789.; V.Float 100000.;
    V.Float 1000000.; V.Float 1e-5; V.Float 1e-300; V.Float 1e300;
    V.Float 5e-324; V.Float Float.min_float; V.Float Float.max_float;
    V.Float Float.epsilon; V.Float Float.nan; V.Float Float.infinity;
    V.Float Float.neg_infinity;
    V.Str ""; V.Str "plain"; V.Str "with space"; V.Str "quote\"d";
    V.Str "\xc3\xbcn\xc3\xafc\xc3\xb6d\xc3\xa9"; V.Str "tab\there";
    V.Str "new\nline";
    V.Bool true; V.Bool false;
    V.Timestamp 0; V.Timestamp (-1); V.Timestamp 1_700_000_000;
    V.Null;
  ]

let any = R.Schema.attr ~ty:V.TAny

let golden_db () =
  let values =
    R.Relation.of_list
      (R.Schema.make "Values" [ R.Schema.attr ~ty:V.TInt "I"; any "V" ])
      (List.mapi (fun i v -> tuple [ V.Int i; v ]) edge_values)
  in
  let mixed =
    R.Relation.of_list
      (R.Schema.make "Mixed" [ any "A"; any "B"; any "C" ])
      [
        tuple [ V.Null; V.Bool true; V.Str "x" ];
        tuple [ V.Int 1; V.Float 2.5; V.Timestamp 3 ];
        tuple [ V.Float Float.nan; V.Float (-0.); V.Str "" ];
        tuple [ V.Timestamp 9; V.Null; V.Int (-9) ];
      ]
  in
  let empty = R.Relation.empty (R.Schema.make "Empty" [ any "X" ]) in
  List.fold_left R.Database.add_relation R.Database.empty
    [ values; mixed; empty ]

let test_golden_edge_values () =
  Alcotest.(check string) "every Value constructor and edge float"
    "e35cb586befc05e4efe10276d36e426c" (F.digest_db (golden_db ()))

let test_golden_paper_db () =
  Alcotest.(check string) "paper example database"
    "5ba8d8076936ea2338e2b2dce8c398c1" (F.digest_db (paper_db ()))

let test_edge_values_render_as_format () =
  List.iter
    (fun v ->
      match v with
      | V.Str _ -> ()
      | v ->
          Alcotest.(check string) (format_oracle v) (format_oracle v)
            (V.to_string v))
    edge_values

let non_str_value =
  QCheck.(
    make
      ~print:(fun v -> format_oracle v)
      Gen.(
        oneof
          [
            map (fun i -> V.Int i) int;
            map (fun i -> V.Int i) small_signed_int;
            map (fun f -> V.Float f) float;
            map (fun i -> V.Float (Int64.float_of_bits i)) ui64;
            map (fun b -> V.Bool b) bool;
            map (fun i -> V.Timestamp i) int;
            return V.Null;
          ]))

let prop_to_string_matches_format =
  QCheck.Test.make ~count:2000 ~name:"Value.to_string = Format rendering"
    non_str_value (fun v ->
      let s = V.to_string v in
      String.equal s (format_oracle v)
      && String.equal s (Format.asprintf "%a" V.pp v))

let suite =
  [
    Alcotest.test_case "golden digest: edge values" `Quick
      test_golden_edge_values;
    Alcotest.test_case "golden digest: paper database" `Quick
      test_golden_paper_db;
    Alcotest.test_case "edge values render as Format did" `Quick
      test_edge_values_render_as_format;
    QCheck_alcotest.to_alcotest prop_to_string_matches_format;
  ]
