(* Where a measurement was made.  Wall-clock figures only compare between
   runs on the same host, so every record carries this stamp and
   [--compare] refuses records whose hosts differ. *)

type t = { commit : string; cpu : string; nproc : int; ocaml : string; domains : int }

let read_file path =
  try Some (In_channel.with_open_text path In_channel.input_all) with Sys_error _ -> None

let trim_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.equal (String.sub s 0 lp) prefix then
    Some (String.trim (String.sub s lp (String.length s - lp)))
  else None

(* HEAD, one level of symbolic ref, packed-refs fallback; [DGMC_COMMIT]
   overrides (a source tarball has no .git). *)
let commit () =
  match Sys.getenv_opt "DGMC_COMMIT" with
  | Some c -> c
  | None -> (
    match Option.map String.trim (read_file ".git/HEAD") with
    | None -> "unknown"
    | Some head -> (
      match trim_prefix ~prefix:"ref: " head with
      | None -> head
      | Some r -> (
        match read_file (".git/" ^ r) with
        | Some sha -> String.trim sha
        | None ->
          Option.bind (read_file ".git/packed-refs") (fun txt ->
              List.find_map
                (fun line ->
                  match String.index_opt line ' ' with
                  | Some i
                    when String.equal
                           (String.sub line (i + 1) (String.length line - i - 1))
                           r ->
                    Some (String.sub line 0 i)
                  | Some _ | None -> None)
                (String.split_on_char '\n' txt))
          |> Option.value ~default:"unknown")))

let cpu () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some txt ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.equal (String.trim (String.sub line 0 i)) "model name" ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | Some _ | None -> None)
      (String.split_on_char '\n' txt)
    |> Option.value ~default:"unknown"

let current () =
  {
    commit = commit ();
    cpu = cpu ();
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    domains = 1;
  }

let same_host a b =
  String.equal a.cpu b.cpu && a.nproc = b.nproc && String.equal a.ocaml b.ocaml
  && a.domains = b.domains

let to_json t =
  Printf.sprintf {|{"commit":"%s","cpu":"%s","nproc":%d,"ocaml":"%s","domains":%d}|}
    (Sim.Json.escape t.commit) (Sim.Json.escape t.cpu) t.nproc
    (Sim.Json.escape t.ocaml) t.domains

let of_json j =
  let str k = Option.bind (Sim.Json.member k j) Sim.Json.to_string in
  let int k = Option.bind (Sim.Json.member k j) Sim.Json.to_int in
  match (str "commit", str "cpu", int "nproc", str "ocaml", int "domains") with
  | Some commit, Some cpu, Some nproc, Some ocaml, Some domains ->
    Some { commit; cpu; nproc; ocaml; domains }
  | _ -> None

let describe t =
  Printf.sprintf "commit=%s cpu=%S nproc=%d ocaml=%s domains=%d" t.commit t.cpu t.nproc
    t.ocaml t.domains
