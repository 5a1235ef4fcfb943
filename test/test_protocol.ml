(* Server protocol codec: round trips, malformed input, response shapes. *)

module P = Dc_server.Protocol
module R = Dc_relational

(* [Commit_delta] carries a map whose internal tree shape depends on
   insertion order, so request equality goes through the change lists,
   not polymorphic [=] on the map. *)
let req_equal a b =
  match (a, b) with
  | P.Commit_delta da, P.Commit_delta db ->
      R.Delta.changes da = R.Delta.changes db
  | _ -> a = b

let req =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (P.render_request r))
    req_equal

let roundtrip name r () =
  Alcotest.(check (result req string))
    name (Ok r)
    (P.parse_request (P.render_request r))

let test_roundtrips () =
  roundtrip "cite" (P.Cite "Q(X) :- Family(X,N,D)") ();
  roundtrip "stats" P.Stats ();
  roundtrip "health" P.Health ();
  roundtrip "quit" P.Quit ();
  roundtrip "cite_param no bindings"
    (P.Cite_param { view = "V2"; bindings = [] })
    ();
  roundtrip "cite_param bindings"
    (P.Cite_param
       {
         view = "V1";
         bindings = [ ("FID", R.Value.Int 3); ("Name", R.Value.Str "gnrh") ];
       })
    ()

let test_v2_roundtrips () =
  roundtrip "cite_at"
    (P.Cite_at { version = 3; query = "Q(X) :- Family(X,N,D)" })
    ();
  roundtrip "versions" P.Versions ();
  roundtrip "verify"
    (P.Verify { version = 0; digest = "d41d8cd98f00b204e9800998ecf8427e" })
    ();
  roundtrip "register" (P.Register "Q(X) :- Family(X,N,D)") ();
  let delta =
    R.Delta.insert
      (R.Delta.delete R.Delta.empty "Family"
         (R.Tuple.make [ R.Value.Int 9; R.Value.Str "old" ]))
      "Family"
      (R.Tuple.make [ R.Value.Int 10; R.Value.Str "fresh" ])
  in
  roundtrip "commit_delta" (P.Commit_delta delta) ();
  let multi =
    R.Delta.insert
      (R.Delta.insert R.Delta.empty "A" (R.Tuple.make [ R.Value.Int 1 ]))
      "B"
      (R.Tuple.make [ R.Value.Int 2; R.Value.Int 3 ])
  in
  roundtrip "commit_delta two relations" (P.Commit_delta multi) ()

let test_v2_prefix () =
  (* Every v1 command is valid under the V2 prefix, and the v2 commands
     are accepted bare. *)
  Alcotest.(check (result req string))
    "V2 CITE" (Ok (P.Cite "Q(X) :- R(X)"))
    (P.parse_request "V2 CITE Q(X) :- R(X)");
  Alcotest.(check (result req string))
    "V2 STATS" (Ok P.Stats) (P.parse_request "v2 stats");
  Alcotest.(check (result req string))
    "bare CITE_AT"
    (Ok (P.Cite_at { version = 1; query = "Q(X) :- R(X)" }))
    (P.parse_request "CITE_AT 1 Q(X) :- R(X)");
  Alcotest.(check (result req string))
    "bare VERSIONS" (Ok P.Versions) (P.parse_request "versions")

(* Property round trip across all request shapes: safe strings avoid
   the documented wire limitations (no [,;()=] or spaces in scalars, no
   integer-shaped strings). *)
let safe_str =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'x'; 'y'; 'z' ]) (1 -- 8))

let gen_value =
  QCheck.Gen.(
    oneof
      [ map (fun n -> R.Value.Int n) small_int;
        map (fun s -> R.Value.Str s) safe_str ])

let gen_tuple = QCheck.Gen.(map R.Tuple.make (list_size (1 -- 3) gen_value))

let gen_delta =
  QCheck.Gen.(
    map
      (List.fold_left
         (fun d (ins, rel, t) ->
           if ins then R.Delta.insert d rel t else R.Delta.delete d rel t)
         R.Delta.empty)
      (list_size (1 -- 5) (triple bool safe_str gen_tuple)))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> P.Cite ("Q(X) :- " ^ s ^ "(X)")) safe_str;
        map2
          (fun view bindings -> P.Cite_param { view; bindings })
          safe_str
          (list_size (0 -- 3) (pair safe_str gen_value));
        map2
          (fun version s ->
            P.Cite_at { version; query = "Q(X) :- " ^ s ^ "(X)" })
          small_nat safe_str;
        map (fun d -> P.Commit_delta d) gen_delta;
        return P.Versions;
        map2 (fun version digest -> P.Verify { version; digest }) small_nat
          safe_str;
        map (fun s -> P.Register ("Q(X) :- " ^ s ^ "(X)")) safe_str;
        return P.Stats;
        return P.Health;
        return P.Quit;
      ])

let arb_request =
  QCheck.make ~print:(fun r -> P.render_request r) gen_request

let test_roundtrip_prop =
  Testutil.qtest "render/parse round trip" arb_request (fun r ->
      match P.parse_request (P.render_request r) with
      | Ok r' -> req_equal r r'
      | Error _ -> false)

let test_lenient_parse () =
  Alcotest.(check (result req string))
    "lowercase command"
    (Ok (P.Cite "Q(X) :- R(X)"))
    (P.parse_request "cite Q(X) :- R(X)");
  Alcotest.(check (result req string))
    "trailing CR" (Ok P.Stats) (P.parse_request "STATS\r");
  Alcotest.(check (result req string))
    "surrounding blanks" (Ok P.Health)
    (P.parse_request "  HEALTH  ");
  Alcotest.(check (result req string))
    "binding spaces"
    (Ok (P.Cite_param { view = "V1"; bindings = [ ("A", R.Value.Int 1) ] }))
    (P.parse_request "CITE_PARAM V1  A=1 ")

let check_err name line =
  match P.parse_request line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected parse error for %S" name line

let test_malformed () =
  check_err "empty" "";
  check_err "blank" "   ";
  check_err "unknown" "BOGUS x";
  check_err "cite without query" "CITE";
  check_err "cite_param without view" "CITE_PARAM";
  check_err "cite_param bad binding" "CITE_PARAM V1 notabinding";
  check_err "cite_param empty name" "CITE_PARAM V1 =3";
  check_err "stats with args" "STATS now";
  check_err "health with args" "HEALTH please";
  check_err "quit with args" "QUIT 0"

let test_v2_malformed () =
  check_err "V2 alone" "V2";
  check_err "V2 unknown" "V2 BOGUS";
  check_err "cite_at no version" "V2 CITE_AT";
  check_err "cite_at bad version" "V2 CITE_AT one Q(X) :- R(X)";
  check_err "cite_at no query" "V2 CITE_AT 3";
  check_err "commit_delta empty" "V2 COMMIT_DELTA";
  check_err "commit_delta truncated" "V2 COMMIT_DELTA +R(1";
  check_err "commit_delta no sign" "V2 COMMIT_DELTA R(1)";
  check_err "commit_delta empty tuple" "V2 COMMIT_DELTA +R()";
  check_err "commit_delta no relation" "V2 COMMIT_DELTA +(1)";
  check_err "versions with args" "V2 VERSIONS now";
  check_err "verify no digest" "V2 VERIFY 0";
  check_err "verify bad version" "V2 VERIFY x abc";
  check_err "register no query" "V2 REGISTER"

(* An empty or blank field is refused, naming the change, by both
   delta parsers — never dropped, which would commit a shorter tuple
   than was sent. *)
let test_delta_empty_field () =
  let schemas =
    [
      R.Schema.make "Family"
        R.Schema.
          [
            attr ~ty:TInt "a"; attr ~ty:TStr "b"; attr ~ty:TStr "c";
            attr ~ty:TStr "d";
          ];
    ]
  in
  List.iter
    (fun change ->
      let names_change = function
        | Ok d ->
            Alcotest.failf "%S parsed as %s" change (R.Delta_wire.render d)
        | Error e ->
            Alcotest.(check string) "error names the change"
              (Printf.sprintf "bad change %S: empty field" change)
              e
      in
      names_change (R.Delta_wire.parse change);
      names_change (R.Delta_wire.parse_typed ~schemas change);
      check_err "commit_delta empty field" ("V2 COMMIT_DELTA " ^ change))
    [
      "+Family(99,,Foo,Bar)";
      "+Family(1,x,y,)";
      "-Family(,1,x,y)";
      "+Family(1, ,x,y)";
    ]

let test_parse_total =
  Testutil.qtest "parse_request never raises" QCheck.string (fun s ->
      match P.parse_request s with Ok _ | Error _ -> true)

let test_error_line () =
  let line = P.error_line "boom \"quoted\"\nsecond" in
  Alcotest.(check bool) "ERR prefix" true (String.length line > 4);
  Alcotest.(check string) "prefix" "ERR " (String.sub line 0 4);
  Alcotest.(check bool)
    "single line" false
    (String.contains line '\n');
  match P.classify_response line with
  | `Err body ->
      Alcotest.(check bool) "body is json" true (body.[0] = '{')
  | `Ok _ | `Malformed -> Alcotest.fail "error_line must classify as `Err"

let test_classify () =
  (match P.classify_response P.ok_bye with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "ok_bye is `Ok");
  (match P.classify_response "garbage" with
  | `Malformed -> ()
  | _ -> Alcotest.fail "garbage is `Malformed");
  match
    P.classify_response
      (P.ok_health ~uptime_s:1.5 ~views:3 ~relations:7 ~tuples:12 ())
  with
  | `Ok line ->
      let contains sub =
        let n = String.length line and m = String.length sub in
        let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "health carries tuple count" true
        (contains {|"tuples":12|});
      Alcotest.(check bool)
        "health carries protocol handshake" true
        (contains
           (Printf.sprintf {|"protocol":%d|} P.protocol_version));
      Alcotest.(check bool)
        "health lists accepted protocols" true
        (contains {|"protocols":[1,2]|})
  | _ -> Alcotest.fail "ok_health is `Ok"

(* v2 HEALTH: the prefixed command selects the durability-aware variant
   while the bare spelling — and its response — stay byte-identical. *)
let test_health_v2 () =
  Alcotest.(check (result req string))
    "bare HEALTH is v1" (Ok P.Health) (P.parse_request "HEALTH");
  Alcotest.(check (result req string))
    "V2 HEALTH selects the v2 variant" (Ok P.Health_v2)
    (P.parse_request "V2 HEALTH");
  Alcotest.(check (result req string))
    "v2 health round trips" (Ok P.Health_v2)
    (P.parse_request (P.render_request P.Health_v2));
  check_err "v2 health with args" "V2 HEALTH please";
  let v1 = P.ok_health ~uptime_s:1.5 ~views:3 ~relations:7 ~tuples:12 () in
  let v1' =
    (* omitting every durability field must not change a byte *)
    P.ok_health ?data_dir:None ?wal_enabled:None ?last_snapshot_version:None
      ~uptime_s:1.5 ~views:3 ~relations:7 ~tuples:12 ()
  in
  Alcotest.(check string) "v1 health byte-identical" v1 v1';
  let v2 =
    P.ok_health ~data_dir:"/data" ~wal_enabled:true ~last_snapshot_version:4
      ~uptime_s:1.5 ~views:3 ~relations:7 ~tuples:12 ()
  in
  let contains sub =
    let n = String.length v2 and m = String.length sub in
    let rec at i = i + m <= n && (String.sub v2 i m = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "data_dir" true (contains {|"data_dir":"/data"|});
  Alcotest.(check bool) "wal_enabled" true (contains {|"wal_enabled":true|});
  Alcotest.(check bool) "last_snapshot_version" true
    (contains {|"last_snapshot_version":4|})

(* --- incremental decoder ------------------------------------------- *)

let items_of dec s = P.Decoder.feed dec s

let feed_bytewise dec s =
  List.concat_map
    (fun i -> items_of dec (String.make 1 s.[i]))
    (List.init (String.length s) Fun.id)

let item =
  Alcotest.testable
    (fun ppf -> function
      | Ok r -> Format.fprintf ppf "Ok %s" (P.render_request r)
      | Error e -> Format.fprintf ppf "Error %s" e)
    (fun a b ->
      match (a, b) with
      | Ok ra, Ok rb -> req_equal ra rb
      | Error _, Error _ -> true (* same failure, message free to differ *)
      | _ -> false)

let stream =
  "CITE Q(X) :- R(X)\nSTATS\r\nCITE_BATCH 2\nQ(X) :- A(X)\r\nQ(Y) :- B(Y)\n\
   BOGUS nonsense\nV2 VERSIONS\n"

let expected_stream =
  [
    Ok (P.Cite "Q(X) :- R(X)");
    Ok P.Stats;
    Ok (P.Cite_batch [ "Q(X) :- A(X)"; "Q(Y) :- B(Y)" ]);
    Error "parse";
    Ok P.Versions;
  ]

let test_decoder_whole_feed () =
  let dec = P.Decoder.create () in
  Alcotest.(check (list item))
    "one feed frames every request" expected_stream (items_of dec stream);
  Alcotest.(check int) "no bytes left over" 0 (P.Decoder.pending_bytes dec);
  Alcotest.(check bool) "no batch pending" false (P.Decoder.in_batch dec)

let test_decoder_byte_at_a_time () =
  (* Framing must not depend on how reads chunk the stream: feeding one
     byte at a time yields exactly the whole-feed items. *)
  let dec = P.Decoder.create () in
  Alcotest.(check (list item))
    "byte-at-a-time equals whole-string" expected_stream
    (feed_bytewise dec stream);
  (* and split at every position into two chunks *)
  for cut = 0 to String.length stream do
    let dec = P.Decoder.create () in
    let a = String.sub stream 0 cut in
    let b = String.sub stream cut (String.length stream - cut) in
    let first = items_of dec a in
    let second = items_of dec b in
    Alcotest.(check (list item))
      (Printf.sprintf "split at %d" cut)
      expected_stream (first @ second)
  done

let test_decoder_incomplete_line () =
  let dec = P.Decoder.create () in
  Alcotest.(check (list item)) "no newline, no item" [] (items_of dec "STA");
  Alcotest.(check int) "partial buffered" 3 (P.Decoder.pending_bytes dec);
  Alcotest.(check (list item))
    "completion frames it"
    [ Ok P.Stats ]
    (items_of dec "TS\n")

let test_decoder_oversized_resync () =
  let dec = P.Decoder.create ~max_line_bytes:16 () in
  let long = String.make 64 'x' in
  let items = items_of dec (long ^ "\nSTATS\n") in
  Alcotest.(check (list item))
    "oversized line errors once, next line parses"
    [ Error "too long"; Ok P.Stats ]
    items;
  (* an oversized line inside a batch abandons the batch too *)
  let dec = P.Decoder.create ~max_line_bytes:16 () in
  let items = items_of dec ("CITE_BATCH 2\n" ^ long ^ "\nSTATS\n") in
  Alcotest.(check (list item))
    "oversized batch query aborts the batch"
    [ Error "too long"; Ok P.Stats ]
    items;
  Alcotest.(check bool) "batch state cleared" false (P.Decoder.in_batch dec)

let test_decoder_batch_errors () =
  let bad header =
    let dec = P.Decoder.create ~max_batch:8 () in
    match items_of dec (header ^ "\n") with
    | [ Error _ ] -> ()
    | items ->
        Alcotest.failf "%s: expected one error, got %d item(s)" header
          (List.length items)
  in
  bad "CITE_BATCH";
  bad "CITE_BATCH zero";
  bad "CITE_BATCH 0";
  bad "CITE_BATCH -3";
  bad "CITE_BATCH 9";
  (* over max_batch *)
  (* an empty query line abandons the batch; framing resynchronizes *)
  let dec = P.Decoder.create () in
  Alcotest.(check (list item))
    "empty query aborts, next command parses"
    [ Error "empty query"; Ok P.Health ]
    (items_of dec "CITE_BATCH 3\nQ(X) :- A(X)\n\nHEALTH\n");
  (* the single-line parser refuses a bare header outright *)
  match P.parse_request "CITE_BATCH 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_request must refuse CITE_BATCH"

let test_decoder_batch_render_roundtrip () =
  let r = P.Cite_batch [ "Q(X) :- A(X)"; "Q(Y) :- B(Y)"; "Q(Z) :- C(Z)" ] in
  let dec = P.Decoder.create () in
  Alcotest.(check (list item))
    "render feeds back to the same request"
    [ Ok r ]
    (items_of dec (P.render_request r ^ "\n"))

let test_busy_line () =
  Alcotest.(check bool) "busy_line is BUSY" true
    (P.is_busy_response P.busy_line);
  Alcotest.(check bool) "other errors are not" false
    (P.is_busy_response (P.error_line "BUSY elsewhere"));
  Alcotest.(check bool) "ok is not" false (P.is_busy_response P.ok_bye);
  match P.classify_response P.busy_line with
  | `Err _ -> ()
  | _ -> Alcotest.fail "busy_line must classify as `Err"

let gen_stream =
  (* random request streams: render valid requests, join, frame *)
  QCheck.Gen.(list_size (1 -- 10) gen_request)

let arb_stream =
  QCheck.make
    ~print:(fun rs -> String.concat " | " (List.map P.render_request rs))
    gen_stream

let test_decoder_stream_prop =
  Testutil.qtest "decoder frames rendered streams" arb_stream (fun rs ->
      let wire =
        String.concat "" (List.map (fun r -> P.render_request r ^ "\n") rs)
      in
      let dec = P.Decoder.create () in
      let items = items_of dec wire in
      List.length items = List.length rs
      && List.for_all2
           (fun r -> function Ok r' -> req_equal r r' | Error _ -> false)
           rs items)

let suite =
  [
    Alcotest.test_case "round trips" `Quick test_roundtrips;
    Alcotest.test_case "v2 round trips" `Quick test_v2_roundtrips;
    Alcotest.test_case "v2 prefix" `Quick test_v2_prefix;
    Alcotest.test_case "lenient parsing" `Quick test_lenient_parse;
    Alcotest.test_case "malformed requests" `Quick test_malformed;
    Alcotest.test_case "v2 malformed requests" `Quick test_v2_malformed;
    Alcotest.test_case "delta: empty field refused" `Quick
      test_delta_empty_field;
    test_parse_total;
    test_roundtrip_prop;
    Alcotest.test_case "error lines" `Quick test_error_line;
    Alcotest.test_case "classify responses" `Quick test_classify;
    Alcotest.test_case "v2 health" `Quick test_health_v2;
    Alcotest.test_case "decoder whole feed" `Quick test_decoder_whole_feed;
    Alcotest.test_case "decoder byte-at-a-time" `Quick
      test_decoder_byte_at_a_time;
    Alcotest.test_case "decoder incomplete line" `Quick
      test_decoder_incomplete_line;
    Alcotest.test_case "decoder oversized resync" `Quick
      test_decoder_oversized_resync;
    Alcotest.test_case "decoder batch errors" `Quick test_decoder_batch_errors;
    Alcotest.test_case "decoder batch render roundtrip" `Quick
      test_decoder_batch_render_roundtrip;
    Alcotest.test_case "busy line" `Quick test_busy_line;
    test_decoder_stream_prop;
  ]
