(** MEGASWARM — a partitioned, domain-sharded many-session workload.

    The swarm workload stressed one dispatcher; megaswarm runs [P]
    logical partitions — each a complete ADAPTIVE stack with its own
    engine, hosts, MANTTS entities and UNITES repository — connected by
    a constant-latency WAN, and executes them across OCaml 5 domains
    with {!Adaptive_fleet.Shard}'s conservative barrier-window
    synchronization.

    The partition count is part of the {e logical} configuration: it
    fixes the workload, the connection-id stripes, and the traffic.  The
    shard count is purely an {e execution} choice — [shards = 1] and
    [shards = N] produce the same combined digest and byte-identical
    UNITES reports, which the parity tests pin.

    Every [cross_share]-th local slot also opens a session to the next
    partition's server over the WAN (ring order), so the conservative
    exchange path carries real protocol traffic: connection setup, data,
    acks and release all cross the partition boundary.

    Each partition's host pair and slot lifecycle are {!Churn}'s, shared
    with {!Swarm}; its UNITES repository runs the P² quantile estimator,
    so metric memory stays flat however many sessions churn through. *)

open Adaptive_sim
open Adaptive_core

type config = {
  sessions : int;  (** Total session slots across all partitions. *)
  partitions : int;  (** Logical partitions (fixed per workload). *)
  shards : int;  (** Execution domains; result-invariant. *)
  churn_rounds : int;  (** Reopen rounds per slot after first close. *)
  seed : int;
  payload_bytes : int;  (** Mean application message size. *)
  open_window : Time.t;  (** Window over which opens are staggered. *)
  monitored_share : int;  (** Every Nth local session keeps a monitor. *)
  cross_share : int;  (** Every Nth local slot opens a WAN session
                          (0 disables cross traffic). *)
  wan_latency : Time.t;  (** Base one-way cross-partition latency; also
                             the conservative lookahead floor. *)
  wan_spread : Time.t;
      (** Maximum extra per-pair latency.  Each ordered (src, dst)
          partition pair gets a deterministic latency in
          [wan_latency, wan_latency + wan_spread], and SHARD's per-pair
          lookahead matrix is built from the same function — so
          heterogeneous WANs synchronize on per-destination windows
          rather than the global minimum.  [Time.zero] (the default)
          collapses to the uniform-latency WAN. *)
  session_cap : int option;
      (** When set, each partition's UNITES repository tracks at most
          this many distinct sessions individually; the rest fold into
          one overflow bucket (totals preserved).  Bounds metric — and
          report-rendering — memory at GIGASWARM scale.  UNITES routing
          never reaches the trace, so the digest is unaffected. *)
  steer : Steer.policy option;
      (** When set, each partition runs its own STEER engine over its
          locally opened sessions.  Steering state is partition-local, so
          the shards=1 vs shards=N digest parity is preserved. *)
}

val default_config : sessions:int -> seed:int -> config
(** 4 partitions, 1 shard, 5 ms WAN, cross traffic every 16th slot. *)

type outcome = {
  offered : int;
  admitted : int;
  refused : int;
  cross_opened : int;  (** WAN sessions opened. *)
  delivered_msgs : int;
  delivered_bytes : int;
  wan_exchanged : int;  (** Cross-partition PDUs through the barriers. *)
  steer_swaps : int;  (** STEER swaps applied, summed over partitions. *)
  peak_live : int;  (** Max live sessions at any one dispatcher. *)
  events_fired : int;  (** Summed over partition engines. *)
  sim_time : Time.t;
  digest : int64;  (** Combined partition trace digests, in order. *)
  partition_digests : int64 list;
  demux_probes_mean_max : float;  (** Worst partition's mean demux probes. *)
  monitor_ticks : int;  (** Shared monitor-tick firings, all partitions. *)
  monitor_walked : int;  (** Live monitors walked across those ticks —
                             [walked / ticks] is the per-tick working
                             set, O(monitored) not O(sessions). *)
  tw_sweeps : int;  (** Coalesced time-wait sweeper firings. *)
  tw_expired : int;  (** Time-wait entries those sweeps expired. *)
  sync_windows : int;  (** SHARD barrier windows executed. *)
  sync_skipped : int;  (** Empty spans jumped by the skip fast path. *)
  shard_wall_s : float list;
      (** Wall seconds each shard spent inside partition windows, in
          shard order; all zeros unless {!run} was given a clock. *)
  stage_minor_words : (string * float) list;
      (** Minor words allocated on the coordinating domain per run
          stage, in order: ["build"], ["schedule"], ["sim"], ["reduce"].
          The ["sim"] entry over the event count is the hot-path
          allocation figure; authoritative at [shards = 1] (GC counters
          are per-domain). *)
  unites_reports : string list;  (** Rendered per-partition UNITES
                                     reports, in partition order. *)
}

val run : ?clock:(unit -> float) -> config -> outcome
(** Build the partitions, run them to quiescence under conservative
    barrier-window synchronization, and reduce.  Deterministic in
    [config]; independent of [shards] by construction.  [clock]
    (e.g. [Unix.gettimeofday]) enables the per-shard wall-time
    breakdown in the outcome without making this library depend on
    unix.  Raises [Invalid_argument] on a non-positive
    session/partition/shard count (a zero [wan_latency] is rejected by
    {!Adaptive_fleet.Shard}). *)

val pp_outcome : Format.formatter -> outcome -> unit
