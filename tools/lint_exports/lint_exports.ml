(* lib/ exports only what production calls.  Every [val] in an .mli under
   lib/ must be reached from another production unit (one under lib/,
   bin/ or perfbench/tool/), and every optional parameter of a reached
   export must be passed by some production application, unless the
   allowlist names it with a reason.  An allowlist line that names a
   reached export, a passed option or no export at all fails too.

   An export is reached when a production unit's typed tree holds an
   identifier whose value description carries the location of that [val]
   in the .mli: the type checker resolves [open], module aliases and
   [include] to that description, so the location is an exact key.  A
   lib/ module passed to a functor reaches each value the functor's
   parameter takes from it, read off the argument's coercion.

   Usage, from the repository root after `dune build @check` (executables
   get a .cmt only under @check):
     lint_exports [BUILD_DIR [ALLOW_FILE]]
   (default _build/default and tools/exports.allow).  Exit status 1 on a
   finding, 2 on a usage or input error. *)

open Typedtree

type export = {
  name : string;  (** Public path, e.g. [Dc_cq.Atom.compare]. *)
  unit_name : string;  (** The compilation unit, e.g. [Dc_cq__Atom]. *)
  loc : Location.t;  (** The [val] in the .mli. *)
  optionals : string list;  (** Labels of its optional parameters. *)
}

let key (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_cnum

(* Dc_cq__Atom -> Dc_cq.Atom: dune names a wrapped library's units so. *)
let public_name unit_name =
  let b = Buffer.create (String.length unit_name) in
  let n = String.length unit_name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && unit_name.[!i] = '_' && unit_name.[!i + 1] = '_' then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b unit_name.[!i];
      incr i)
  done;
  Buffer.contents b

let rec files dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry
         and rel = if rel = "" then entry else rel ^ "/" ^ entry in
         if Sys.is_directory path then files path rel else [ (path, rel) ])

(* Which tree a unit's file lies in: "production", or the top directory
   that says what else uses an export (test, oracle, bench, ...). *)
let origin rel =
  let starts prefix = String.starts_with ~prefix rel in
  if starts "lib/" || starts "bin/" || starts "perfbench/tool/" then
    "production"
  else if starts "test/oracle/" then "oracle"
  else match String.index_opt rel '/' with
    | Some i -> String.sub rel 0 i
    | None -> rel

let rec optionals ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optionals ret
  | Tarrow (_, _, ret, _) -> optionals ret
  | Tpoly (ty, _) -> optionals ty
  | _ -> []

let rec sig_exports unit_name prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          [ { name = prefix ^ "." ^ vd.val_name.txt; unit_name;
              loc = vd.val_val.val_loc;
              optionals = optionals vd.val_val.val_type } ]
      | Tsig_module { md_name = { txt = Some m; _ };
                      md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          sig_exports unit_name (prefix ^ "." ^ m) sg
      | _ -> [])
    sg.sig_items

(* The keys of a signature's values by runtime position, as a functor
   argument's coercion numbers them. *)
let runtime_values (sg : Types.signature) =
  List.filter_map
    (function
      | Types.Sig_value (_, { val_kind = Val_prim _; _ }, _)
      | Sig_type _ | Sig_modtype _ | Sig_class_type _
      | Sig_module (_, Mp_absent, _, _, _) -> None
      | Sig_value (_, vd, _) -> Some (Some (key vd.val_loc))
      | Sig_typext _ | Sig_module _ | Sig_class _ -> Some None)
    sg
  |> Array.of_list

type refs = {
  reached : (string, string list) Hashtbl.t;  (** export key -> origins *)
  passed : (string * string, unit) Hashtbl.t;  (** (key, label) passed *)
}

let scan_unit ~exports ~runtime refs ~unit_name ~origin str =
  let note k =
    match Hashtbl.find_opt exports k with
    | Some e when e.unit_name <> unit_name ->
        let seen = Option.value ~default:[] (Hashtbl.find_opt refs.reached k) in
        if not (List.mem origin seen) then
          Hashtbl.replace refs.reached k (origin :: seen)
    | _ -> ()
  in
  let aliases = Hashtbl.create 8 in
  let rec unit_of_path = function
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some u -> Some u
        | None -> Some (Ident.name id))
    | Pdot (p, m) ->
        Option.map (fun u -> u ^ "__" ^ m) (unit_of_path p)
    | _ -> None
  in
  (* A path argument comes wrapped in a constraint to its own
     (strengthened) signature, which keeps the unit's runtime layout. *)
  let rec functor_arg (arg : module_expr) cc =
    match arg.mod_desc with
    | Tmod_constraint (arg, _, Tmodtype_implicit, _) -> functor_arg arg cc
    | Tmod_ident (p, _) -> (
        match Option.bind (unit_of_path p) (Hashtbl.find_opt runtime) with
        | None -> ()
        | Some values ->
            let positions =
              match cc with
              | Tcoerce_structure (pos, _) -> List.map fst pos
              | _ -> List.init (Array.length values) Fun.id
            in
            List.iter (fun i -> Option.iter note values.(i)) positions)
    | _ -> ()
  in
  let open Tast_iterator in
  let it =
    { default_iterator with
      expr = (fun self e ->
        (match e.exp_desc with
         | Texp_ident (_, _, vd) -> note (key vd.val_loc)
         | _ -> ());
        (match e.exp_desc with
         | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
             List.iter
               (function
                 (* The type checker fills an omitted optional argument
                    with a ghost [None]. *)
                 | Asttypes.Optional _,
                   Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []);
                          exp_loc = { loc_ghost = true; _ }; _ } -> ()
                 | Asttypes.Optional l, Some _ when origin = "production" ->
                     Hashtbl.replace refs.passed (key vd.val_loc, l) ()
                 | _ -> ())
               args
         | _ -> ());
        default_iterator.expr self e);
      module_binding = (fun self mb ->
        (match mb.mb_id, mb.mb_expr.mod_desc with
         | Some id, Tmod_ident (p, _) ->
             Option.iter (Hashtbl.replace aliases (Ident.unique_name id))
               (unit_of_path p)
         | _ -> ());
        default_iterator.module_binding self mb);
      module_expr = (fun self me ->
        (match me.mod_desc with
         | Tmod_apply (_, arg, cc) -> functor_arg arg cc
         | _ -> ());
        default_iterator.module_expr self me) }
  in
  it.structure it str

type allow = { entry : string; reason : string; line : int }

let read_allow path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter_map (fun (line, l) ->
           if l = "" || l.[0] = '#' then None
           else
             let entry, reason =
               match String.index_opt l '#' with
               | Some i ->
                   ( String.trim (String.sub l 0 i),
                     String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
               | None -> (l, "")
             in
             Some { entry; reason; line })

let () =
  let build, allow_file =
    match Array.to_list Sys.argv |> List.tl with
    | [] -> ("_build/default", "tools/exports.allow")
    | [ b ] -> (b, "tools/exports.allow")
    | [ b; a ] -> (b, a)
    | _ ->
        prerr_endline "usage: lint_exports [BUILD_DIR [ALLOW_FILE]]";
        exit 2
  in
  let all = files build "" in
  let ends s suffix = Filename.check_suffix s suffix in
  let read path =
    try Cmt_format.read_cmt path
    with e ->
      Printf.eprintf "lint_exports: cannot read %s: %s\n" path
        (Printexc.to_string e);
      exit 2
  in
  (* Executables get a typed tree only under @check: a production unit
     compiled without one would hide every reference it makes. *)
  let cmts = List.filter (fun (_, rel) -> ends rel ".cmt") all in
  let missing =
    List.filter_map
      (fun (_, rel) ->
        if ends rel ".cmx" && origin rel = "production" then
          let base = Filename.(basename (chop_suffix rel ".cmx")) in
          if List.exists (fun (_, r) -> Filename.basename r = base ^ ".cmt") cmts
          then None
          else Some rel
        else None)
      all
  in
  if missing <> [] then begin
    List.iter (Printf.eprintf "lint_exports: no .cmt beside %s\n") missing;
    prerr_endline "lint_exports: run `dune build @check` first";
    exit 2
  end;
  let exports = Hashtbl.create 1024 and runtime = Hashtbl.create 128 in
  List.iter
    (fun (path, rel) ->
      if ends rel ".cmti" && String.starts_with ~prefix:"lib/" rel then
        let cmt = read path in
        match cmt.cmt_annots with
        | Interface sg ->
            let u = cmt.cmt_modname in
            List.iter (fun e -> Hashtbl.replace exports (key e.loc) e)
              (sig_exports u (public_name u) sg);
            Hashtbl.replace runtime u (runtime_values sg.sig_type)
        | _ -> ())
    all;
  let refs = { reached = Hashtbl.create 1024; passed = Hashtbl.create 256 } in
  List.iter
    (fun (path, rel) ->
      let cmt = read path in
      match cmt.cmt_annots with
      | Implementation str ->
          scan_unit ~exports ~runtime refs ~unit_name:cmt.cmt_modname
            ~origin:(origin rel) str
      | _ -> ())
    cmts;
  let exports =
    Hashtbl.to_seq_values exports |> List.of_seq
    |> List.sort (fun a b ->
           compare
             (a.loc.loc_start.pos_fname, a.loc.loc_start.pos_cnum)
             (b.loc.loc_start.pos_fname, b.loc.loc_start.pos_cnum))
  in
  let origins e =
    Option.value ~default:[] (Hashtbl.find_opt refs.reached (key e.loc))
  in
  let is_reached e = List.mem "production" (origins e) in
  let never_passed e =
    List.filter (fun l -> not (Hashtbl.mem refs.passed (key e.loc, l)))
      e.optionals
  in
  let reached = List.filter is_reached exports in
  let unreached = List.filter (fun e -> not (is_reached e)) exports in
  let findings =
    List.map (fun e -> (e, e.name)) unreached
    @ List.concat_map
        (fun e -> List.map (fun l -> (e, e.name ^ " ?" ^ l)) (never_passed e))
        reached
  in
  let allow = read_allow allow_file in
  let allowed entry = List.find_opt (fun a -> a.entry = entry) allow in
  let count p l = List.length (List.filter p l) in
  let options = List.concat_map (fun e -> e.optionals) reached in
  Printf.printf "%d of %d lib/ exports reached by another production unit; \
                 %d of %d optional parameters on them passed\n"
    (List.length reached) (List.length exports)
    (List.length options - count (fun (e, n) -> n <> e.name) findings)
    (List.length options);
  Printf.printf "unreached: %d used by no other unit, %d only by tests, \
                 %d by bench, examples, repro or the oracle\n"
    (count (fun e -> origins e = []) unreached)
    (count (fun e -> origins e = [ "test" ]) unreached)
    (count (fun e -> origins e <> [] && origins e <> [ "test" ]) unreached);
  let status = ref 0 in
  List.iter
    (fun (e, entry) ->
      let where =
        Printf.sprintf "%s:%d" e.loc.loc_start.pos_fname e.loc.loc_start.pos_lnum
      in
      let what =
        if entry = e.name then
          match List.sort compare (origins e) with
          | [] -> "no other unit uses it"
          | o -> "used only by " ^ String.concat ", " o
        else "no production call passes it"
      in
      match allowed entry with
      | Some a when a.reason <> "" ->
          Printf.printf "allowed: %s (%s)\n" entry a.reason
      | _ ->
          Printf.printf "%s: %s: %s\n" where entry what;
          status := 1)
    findings;
  List.iter
    (fun a ->
      let fail fmt =
        Printf.ksprintf
          (fun s ->
            Printf.printf "%s:%d: %s\n" allow_file a.line s;
            status := 1)
          fmt
      in
      if a.reason = "" then fail "allowlist entry %s has no reason" a.entry;
      if not (List.exists (fun (_, n) -> n = a.entry) findings) then
        let name, opt =
          match String.index_opt a.entry ' ' with
          | Some i -> (String.sub a.entry 0 i, true)
          | None -> (a.entry, false)
        in
        if not (List.exists (fun e -> e.name = name) exports) then
          fail "stale allowlist entry: %s names no lib/ export" a.entry
        else if opt then
          fail "stale allowlist entry: %s is passed by a production call \
                or names no option" a.entry
        else fail "stale allowlist entry: %s is reached" a.entry)
    allow;
  exit !status
