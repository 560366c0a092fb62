(** SWARM — many-session churn workload.

    Drives one client/server host pair through open → transfer → close
    churn across the Table-1 application mix, at a configurable target of
    concurrent sessions (hundreds to tens of thousands).  Every random
    draw derives from the seed, and every lifecycle event (open, degrade,
    refuse, close, deliver) is recorded into a trace whose FNV-1a digest
    proves two runs replay-equal — the determinism witness of the
    [e11_swarm_scale] experiment.

    Most sessions declare a sub-second duration, so MANTTS skips their
    policy monitor (§4.1.1); every [monitored_share]-th session is
    long-declared and exercises the shared monitor tick.

    The host pair and the slot lifecycle are {!Churn}'s, shared with
    {!Megaswarm}; this entry point adds the wire path, admission, the
    invariant checker, fault injection and the swarm report. *)

open Adaptive_sim
open Adaptive_core
open Adaptive_chaos

type config = {
  sessions : int;  (** Target number of session slots (concurrent). *)
  churn_rounds : int;  (** Close/reopen cycles per slot after the first
                           open (0 = open once). *)
  seed : int;  (** Master seed for every random draw. *)
  payload_bytes : int;  (** Application bytes each session sends. *)
  open_window : Time.t;  (** Opens are staggered across this interval. *)
  admission : Mantts.admission_policy option;
      (** Admission policy installed on the MANTTS instance. *)
  monitored_share : int;  (** Every n-th slot declares a long duration and
                              keeps a policy monitor. *)
  wire : bool;  (** Run the stack in wire-true mode: PDUs cross the
                    network as real bytes through the fused zero-copy
                    codec path.  On this lossless topology the trace
                    digest must equal the value-mode digest. *)
  steer : Steer.policy option;
      (** When set, every admitted session is put under a STEER
          closed-loop policy engine with this policy (loss-tolerant
          applications get the wider semantics-trading action space). *)
  chaos : Fault.schedule option;
      (** When set, the schedule is installed against the swarm link and
          both host CPUs — the chaos backdrop the steered population is
          measured against. *)
  check_invariants : bool;
      (** Attach the chaos invariant checker (delivery oracles at both
          dispatchers, counter monotonicity, the MANTTS/STEER
          flap-cooldown oracle) and report its violations. *)
  scs_transform : (Scs.t -> Scs.t) option;
      (** Pin every admitted session's derived SCS through this rewrite —
          the static-configuration baseline arms of the steering
          experiments ({!Mantts.try_open_session}'s [scs_transform]). *)
  link_bps : float;
      (** Swarm link bandwidth.  The 1 Gb/s default keeps the link
          effectively unconstrained (the historical swarm behavior, which
          the goldens pin); the steering experiments shrink it so that
          congestion storms create genuine scarcity. *)
  link_mtu : int;
      (** Swarm link MTU.  The 65535 default means a whole swarm payload
          fits one segment (the historical behavior); a realistic MTU
          makes sessions multi-segment so that recovery-scheme dynamics
          (window occupancy, FEC grouping, go-back-n flooding) are
          exercised. *)
  link_queue_pkts : int;
      (** Swarm link queue depth in packets.  The 4096 default buffers
          whole retransmission floods as delay (the historical behavior);
          a realistic shallow queue makes overload tail-drop, so ARQ
          floods during loss bursts become self-punishing. *)
  host_speed : float;
      (** CPU speed multiplier for the two endpoint hosts (1.0 = 2 us/packet
          + 1 ns/byte, checksum work included).  Experiments that scale
          [link_bps] with the session count scale this too, or the host
          CPU quietly becomes the binding constraint. *)
}

val default_config : sessions:int -> seed:int -> config
(** 2 churn rounds, 2000-byte payloads, a 1 s open window, no admission
    policy, every 10th slot monitored, value (non-wire) mode, no
    steering, no chaos, no invariant checking, no SCS pinning, a 1 Gb/s
    link with a 65535-byte MTU, host speed 1.0. *)

type outcome = {
  offered : int;  (** Open attempts (including churn reopens). *)
  admitted : int;  (** Sessions actually opened. *)
  degraded : int;  (** Opens admitted with a lightened configuration. *)
  refused : int;  (** Opens refused by admission control. *)
  closed : int;  (** Sessions closed back down. *)
  delivered_msgs : int;  (** Segments handed to the server application. *)
  delivered_bytes : int;
  goodput_bytes : int;
      (** Application-useful bytes.  Loss-tolerant sessions contribute
          whatever arrived (capped at what they asked to send); a
          fully-reliable session contributes its requested bytes only if
          the whole transfer arrived — a reliable transfer with holes is
          waste, not partial goodput.  This is the differential metric of
          the steering experiments. *)
  peak_live : int;  (** Largest live-session count seen at the client. *)
  sim_time : Time.t;  (** Simulated time at quiescence. *)
  events_fired : int;  (** Engine events executed over the run. *)
  digest : int64;  (** FNV-1a trace digest — the determinism witness. *)
  demux_probes_mean : float;
      (** Mean probes per connection-table lookup (1.0 = every lookup hit
          its first slot). *)
  demux_probes_p99 : float;
  occupancy_p99 : float;  (** p99 of the table load-factor samples. *)
  table_capacity : int;  (** Final client-side table capacity. *)
  timewait_drops : int;  (** Late segments absorbed in time-wait. *)
  wire_report : Session.Wire.report option;
      (** Wire-path counters when the run was wire-true. *)
  steer_stats : (int * int) option;
      (** [(swaps applied, cooldown-blocked decisions)] when the run was
          steered. *)
  faults_injected : int;  (** Chaos faults applied over the run. *)
  violations : Invariant.violation list;
      (** Invariant-oracle violations (empty when checking was off —
          and expected empty when it was on). *)
  unites : Unites.t;  (** The run's metric repository (for reports). *)
}

val run : config -> outcome
(** Build a fresh stack and execute the workload to quiescence. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The swarm whitebox report: admission accounting, demux cost,
    occupancy and the trace digest. *)
