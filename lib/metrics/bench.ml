type cell = {
  series : string;
  size : int;
  seed : int;
  wall_s : float;
}

type section = {
  name : string;
  elapsed_s : float;
  seq_estimate_s : float;
  domains : int;
  cells : cell list;
}

type meta = {
  commit : string;
  master_seed : int;
  domains : int;
  quick : bool;
}

let escape = Jsonf.escape

(* Round-trip float rendering: dgmc-bench/1 is machine-diffed, so wall
   times must survive print → parse exactly. *)
let num = Jsonf.num

let speedup ~seq ~elapsed = if elapsed > 0.0 then seq /. elapsed else 1.0

let cell_json c =
  Printf.sprintf {|{"series": "%s", "size": %d, "seed": %d, "wall_s": %s}|}
    (escape c.series) c.size c.seed (num c.wall_s)

let section_json s =
  let cells = String.concat ",\n        " (List.map cell_json s.cells) in
  Printf.sprintf
    {|    {
      "name": "%s",
      "elapsed_s": %s,
      "seq_estimate_s": %s,
      "speedup_vs_sequential": %s,
      "domains": %d,
      "cells": [
        %s
      ]
    }|}
    (escape s.name) (num s.elapsed_s) (num s.seq_estimate_s)
    (num (speedup ~seq:s.seq_estimate_s ~elapsed:s.elapsed_s))
    s.domains cells

let to_string ~meta ?metrics sections =
  let elapsed = List.fold_left (fun a s -> a +. s.elapsed_s) 0.0 sections in
  let seq = List.fold_left (fun a s -> a +. s.seq_estimate_s) 0.0 sections in
  let metrics_field =
    match metrics with
    | None -> ""
    | Some m -> Printf.sprintf "  \"metrics\": %s,\n" (Registry.snapshot_json m)
  in
  Printf.sprintf
    {|{
  "schema": "dgmc-bench/1",
  "commit": "%s",
  "master_seed": %d,
  "domains": %d,
  "quick": %b,
  "elapsed_s": %s,
  "seq_estimate_s": %s,
  "speedup_vs_sequential": %s,
%s  "figures": [
%s
  ]
}
|}
    (escape meta.commit) meta.master_seed meta.domains meta.quick (num elapsed)
    (num seq)
    (num (speedup ~seq ~elapsed))
    metrics_field
    (String.concat ",\n" (List.map section_json sections))

let write ~path ~meta ?metrics sections =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~meta ?metrics sections))
