type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with ex ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise ex);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send t line =
  output_string t.oc line;
  output_char t.oc '\n'

let flush_out t = flush t.oc

let recv t =
  match input_line t.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _) -> None

let request t line =
  send t line;
  flush_out t;
  recv t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
