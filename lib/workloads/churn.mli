(** CHURN — the one open → send → close → reopen generator behind
    {!Swarm} and {!Megaswarm}.

    A partition is one ADAPTIVE stack holding a client/server host pair
    on one LAN.  Each slot opens a session of the Table-1 mix through
    MANTTS, sends one payload, closes after a 300–800 ms lifetime and
    reopens 100 ms later for [churn_rounds] more rounds; a refused open
    retries the next round 200 ms later.  Every lifecycle event (open,
    degrade, refuse, close, deliver) is folded into the partition's
    trace, whose FNV-1a hash is the run's digest.

    Every value an entry point passes in is digest-bearing, so each is
    the one that entry point used before the two generators merged:
    - the stack [seed] and [estimator]: Swarm's config seed with
      [Stats.Reservoir] (its goldens pin those quantiles); Megaswarm's
      per-partition {!Adaptive_fleet.Fleet.seeds_of} seed with
      [Stats.P2] (flat metric memory at GIGASWARM scale);
    - the host-name [prefix] (["swarm"], ["ms"]) and the [lan] link;
    - the base [rng]: [Rng.create (seed lxor "SWAR")] for Swarm,
      [Rng.split_ix (Rng.create (seed lxor "MSMS")) p] for partition [p];
    - the session [name]: ["sw-<slot>-<round>"] or ["ms-<p>-<slot>-<round>"];
    - [open_at]: [slot * W / N] for Swarm; [1 + (slot * P + p) * W / N]
      for Megaswarm, which interleaves the partitions' opens as one flat
      swarm would and keeps the first inside SHARD's first window;
    - [after_open] (Megaswarm's cross-partition opens), and
      [scs_transform] and [steer] (Swarm's experiments, steered runs). *)

open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

type ledger
(** Goodput accounting: the transfers still in flight, and the bytes of
    those that fully arrived. *)

type t = private {
  stack : Adaptive.stack;
  client : Network.addr;
  server : Network.addr;
  client_cpu : Host.t;
  server_cpu : Host.t;
  trace : Trace.t;
  ledger : ledger;
  mutable offered : int;  (** Open attempts, reopens included. *)
  mutable admitted : int;
  mutable degraded : int;
  mutable refused : int;
  mutable delivered_msgs : int;  (** Segments handed to the server app. *)
  mutable delivered_bytes : int;
  mutable peak_live : int;  (** Largest live-session count at the client. *)
}

val create :
  seed:int -> estimator:Stats.estimator -> prefix:string -> lan:Link.t ->
  host_speed:float -> t
(** Build the stack and the hosts ["<prefix>-client"] and
    ["<prefix>-server"] (2 us/packet + 1 ns/byte, divided by
    [host_speed]), connect them over [lan], attach the trace and install
    the delivery handler.  Schedules nothing. *)

val schedule_opens :
  t -> rng:Rng.t -> slots:int -> churn_rounds:int -> payload_bytes:int ->
  monitored_share:int -> name:(int -> int -> string) -> open_at:(int -> Time.t) ->
  ?scs_transform:(Scs.t -> Scs.t) -> ?steer:Steer.t ->
  ?after_open:(int -> int -> unit) -> unit -> unit
(** Schedule slots [0 .. slots - 1] to open at [open_at slot].  Slot [s]
    in round [r] opens as [name s r], draws its lifetime and payload
    ([max 64 (payload_bytes / 2 + U[0, payload_bytes))]) from
    [Rng.split_ix rng (s * 131 + r)], and is long-declared (keeping a
    policy monitor) when [monitored_share > 0] divides [s].  Admitted
    sessions go under [steer]; [after_open s r] follows every attempt.
    Raises [Invalid_argument] naming [payload_bytes] when it is below 1,
    before it schedules anything. *)

val goodput : t -> int
(** Application-useful bytes: a loss-tolerant session counts what arrived,
    capped at its request; a reliable one counts its request only if all
    of it arrived. *)

val horizon : open_window:Time.t -> churn_rounds:int -> Time.t
(** [open_window] plus 3 s per round: a ceiling the run quiesces before. *)
