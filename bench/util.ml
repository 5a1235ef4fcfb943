(* Timing and table-printing helpers shared by the experiment drivers. *)

(* Monotonic: a clock step mid-measurement must not corrupt a timing. *)
let time_ms f =
  let t0 = Dc_clock.Monotonic.now_s () in
  let result = f () in
  (result, Dc_clock.Monotonic.elapsed_ms t0)

(* Median of [runs] timed executions (the result of the first run is
   returned, so [f] should be deterministic). *)
let timed ?(runs = 3) f =
  let result, first = time_ms f in
  let rest = List.init (runs - 1) (fun _ -> snd (time_ms f)) in
  let sorted = List.sort compare (first :: rest) in
  (result, List.nth sorted (List.length sorted / 2))

let hr title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let subhr note = Printf.printf "---- %s ----\n" note

(* Fixed-width table printing. *)
let row widths cells =
  let pad w s =
    let s = if String.length s > w then String.sub s 0 w else s in
    s ^ String.make (w - String.length s) ' '
  in
  print_endline (String.concat "  " (List.map2 pad widths cells))

let header widths cells =
  row widths cells;
  row widths (List.map (fun w -> String.make w '-') widths)

let ms v = Printf.sprintf "%.2f" v
let pct v = Printf.sprintf "%.0f%%" (100. *. v)

(* Machine-readable benchmark output.  Each experiment that wants a
   diffable perf trajectory across PRs writes BENCH_<EXP>.json in the
   working directory (CI uploads them as artifacts).  Values are
   pre-rendered JSON fragments; keys are escaped here. *)

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
  ^ "}"

let json_list items = "[" ^ String.concat "," items ^ "]"
let json_str s = Printf.sprintf "%S" s
let json_ms v = Printf.sprintf "%.3f" v

let write_bench_json ~experiment fields =
  let path = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out path in
  (* Every experiment records the core count: a scaling number is
     meaningless without knowing how many cores the box could give
     (CI has flagged "speedups" measured on one core before). *)
  let cores =
    ("cores", string_of_int (Domain.recommended_domain_count ()))
  in
  let fields =
    cores :: List.filter (fun (k, _) -> k <> "cores") fields
  in
  output_string oc (json_obj (("experiment", json_str experiment) :: fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path
