(* Interactive shell over Dc_repl.Repl. *)

let () =
  print_endline "datacite interactive shell — 'help' for commands, ctrl-D to exit";
  let state = ref Dc_repl.Repl.initial in
  (try
     while true do
       print_string "datacite> ";
       flush stdout;
       let line = input_line stdin in
       if List.mem (String.trim line) [ "quit"; "exit" ] then raise Exit;
       let state', reply = Dc_repl.Repl.eval !state line in
       state := state';
       if reply <> "" then print_endline reply
     done
   with End_of_file | Exit -> ());
  print_endline "bye"
