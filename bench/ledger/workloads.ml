(* The five workloads.  A workload is a fixed number of rounds; round k
   holds a fixed mix of sizes, and each size draws the next seeds of its
   own sequence S, S+1, ... — so S = 1 reproduces the figure seeds and
   the same S always gives the same cells, on every commit. *)

type t = {
  name : string;
  protos : Cell.proto list;  (** Run on every (size, seed), in this order. *)
  mix : (int * int) list;  (** (switches, seeds per round), sizes ascending. *)
  rounds : int;
      (** Rounds per run: about 15 s of cells on the calibration host, or
          about 20 s where cells' costs differ most between graphs. *)
  instruments : Cell.instruments;  (** Telemetry every cell runs with. *)
}

let round w ~seed k =
  List.concat_map
    (fun (n, per) ->
      List.concat_map
        (fun i ->
          List.map (fun proto -> { Cell.proto; n; seed = seed + (k * per) + i }) w.protos)
        (List.init per Fun.id))
    w.mix

let all =
  [
    {
      name = "burst_scale";
      protos = [ Cell.Dgmc_burst ];
      mix = [ (50, 3); (100, 3); (200, 2); (400, 1) ];
      rounds = 18;
      instruments = Cell.no_instruments;
    };
    {
      name = "compare_fig";
      protos = [ Cell.Dgmc_burst; Cell.Brute_force; Cell.Mospf ];
      mix = [ (20, 1); (40, 1); (60, 1); (80, 1); (100, 1) ];
      rounds = 8;
      instruments = Cell.no_instruments;
    };
    {
      name = "normal_wan";
      protos = [ Cell.Dgmc_poisson ];
      mix = [ (100, 2); (200, 1) ];
      rounds = 45;
      instruments = Cell.no_instruments;
    };
    {
      name = "lossy_churn";
      protos = [ Cell.Dgmc_churn ];
      mix = [ (100, 1) ];
      rounds = 40;
      instruments = Cell.no_instruments;
    };
    {
      name = "observed_burst";
      protos = [ Cell.Dgmc_burst ];
      mix = [ (100, 1) ];
      rounds = 75;
      instruments = Cell.all_instruments;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The smoke subset, its two smallest cells: the smallest size's first
   two seeds, every protocol. *)
let smoke w ~seed =
  let n = fst (List.hd w.mix) in
  List.concat_map
    (fun s -> List.map (fun proto -> { Cell.proto; n; seed = seed + s }) w.protos)
    [ 0; 1 ]

(* The cells every traced run prices the telemetry instruments on: two
   Fig 6 bursts on 100 switches, observed_burst's own cells.  The
   workloads that run without telemetry would otherwise have nothing to
   price, and the flight recorder's per-event calendar walk makes it
   prohibitive on deep calendars such as lossy_churn's. *)
let telemetry_probe ~seed =
  List.map (fun s -> { Cell.proto = Cell.Dgmc_burst; n = 100; seed = seed + s }) [ 0; 1 ]
