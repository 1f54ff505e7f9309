let open_out ~prog path =
  try Stdlib.open_out path
  with Sys_error msg ->
    (* [Sys_error] reads "PATH: reason" *)
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "%s: %s: %s\n%!" prog path reason;
    exit 2
