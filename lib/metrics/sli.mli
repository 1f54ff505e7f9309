(** Protocol service-level indicators: per-MC reconfiguration windows.

    The paper's central claims are about {e dynamics} — how fast a
    multipoint connection reconverges after a membership or link event
    and how much control traffic that costs.  This module reduces a
    run's observations to exactly those figures: observations on one MC
    are sessionized by a time gap (consecutive observations closer than
    [gap] belong to the same {e window}), each window must contain at
    least one {e anchor} (a local join/leave/link event), opens at its
    first anchor and closes at its last topology install — and the
    window population yields convergence-latency and control-cost
    distributions with exact p50/p90/p99 (via {!Stats.percentile}, not
    the {!Registry} bucket approximation).

    The module is trace-agnostic: callers reduce whatever causal record
    they have to {!obs} values ([Report.Run_report] holds the
    [Sim.Trace] adapter).  All inputs are simulated times, so summaries
    over deterministic runs are byte-identical across domain counts. *)

type kind =
  | Anchor  (** A local membership/link event: opens/extends a window. *)
  | Control  (** One control message (LSA origination or per-link hop). *)
  | Install  (** A topology install: the last one closes the window. *)

type obs = { o_mc : string; o_time : float; o_kind : kind }

val anchor : mc:string -> time:float -> obs

val control : mc:string -> time:float -> obs

val install : mc:string -> time:float -> obs

type window = {
  w_mc : string;
  w_start : float;  (** First anchor of the session. *)
  w_end : float;
      (** Last install at or after the first anchor; [w_start] when the
          window never converged. *)
  w_anchors : int;
  w_installs : int;
  w_control : int;  (** Control observations from the anchor on. *)
}

val latency : window -> float
(** [w_end -. w_start]; [0.] for an unconverged window. *)

val converged : window -> bool
(** At least one install. *)

val windows : gap:float -> obs list -> window list
(** Sessionize per MC (input order is irrelevant; ties at equal times
    keep input order) and keep the sessions containing an anchor.
    Sorted by MC name, then window start.  [gap] must be positive. *)

type dist = {
  d_count : int;
  d_mean : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_max : float;
}

type summary = {
  s_gap : float;
  s_windows : window list;
  s_latency : dist;  (** Convergence latency, over converged windows. *)
  s_control : dist;  (** Control messages per window, over all windows. *)
  s_unconverged : int;
}

val summarize : gap:float -> obs list -> summary

val to_json : summary -> string
(** A JSON object embedded by [Report.Run_report] as the [sli] section
    of [dgmc-report/1]; floats round-trip exact. *)
