(* Prints one line per file named on the command line: the hex MD5
   digest of its bytes, two spaces, then the name as given. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file path)) path
  done
