(* perfbench — the repository benchmark.

   One invocation runs one workload for a fixed host-time budget and
   prints human-readable lines, then one JSON result line as the last
   line of standard output:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With [--trace 0] the metrics are the end-to-end set and the workload
   runs untraced: no [~clock], no differential pair, no per-call timing.
   With [--trace 1] they are the per-layer set, measured from outside the
   library by timing calls into each layer's public functions, by the
   spans of a recording clock handed to [Megaswarm.run ~clock], and by
   reading public outcome records, UNITES aggregates and rendered UNITES
   reports.  Nothing here instruments the library itself.

   Usage:
     perfbench.exe --workload churn|storm|sweep --seed N --seconds S
       --trace 0|1 [--commit C]

   Traces and the cross-run digest cache are kept in perfbench/results,
   relative to the checkout root it runs from. *)

open Adaptive_sim
open Adaptive_buf
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_chaos
open Adaptive_workloads

let now = Unix.gettimeofday
let pf = Printf.printf
let results_dir = "perfbench/results"

(* ------------------------------------------------------------ sizes *)

(* Per-iteration work.  A run repeats iterations until its host-time
   budget is spent; each unit of work in an iteration (one Megaswarm run,
   the storm run, one soak schedule) is charged its fastest repetition,
   so units are kept short enough to fit in one of the host's fast
   stretches. *)
let churn_slots = 500
let churn_runs = 16 (* Megaswarm runs per iteration, each with its own seed *)
let storm_slots = 300
let sweep_seeds = 24 (* x 3 environments = 72 schedules per iteration *)

let min_iterations = 3

(* Set-up probes before each iteration, so that they sample the same
   stretch of machine time as the iterations. *)
let probes_per_iteration = function
  | "sweep" -> 5
  | "storm" -> 2
  | _ -> 1

(* ------------------------------------------------------- statistics *)

(* Linear-interpolated quantile, [q] in [0, 1]; 0 for an empty sample. *)
let quantile xs q =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------- recording clock *)

(* The clock handed to [Megaswarm.run ~clock] in traced runs.  SHARD
   calls it around every shard's partition window, on the domain that
   runs the window, so each domain appends to its own buffer: no lock
   on the hot path, only at buffer registration. *)
module Rec_clock = struct
  type buf = { dom : int; mutable ts : float array; mutable n : int }

  let lock = Mutex.create ()
  let bufs : buf list ref = ref []

  let fresh () =
    let b = { dom = (Domain.self () :> int); ts = Array.make 4096 0.0; n = 0 } in
    Mutex.lock lock;
    bufs := b :: !bufs;
    Mutex.unlock lock;
    b

  let key = Domain.DLS.new_key fresh

  (* Drop every buffer; the calling domain starts a fresh one. *)
  let reset () =
    Mutex.lock lock;
    bufs := [];
    Mutex.unlock lock;
    Domain.DLS.set key (fresh ())

  let clock () =
    let t = now () in
    let b = Domain.DLS.get key in
    if b.n = Array.length b.ts then begin
      let ts = Array.make (2 * b.n) 0.0 in
      Array.blit b.ts 0 ts 0 b.n;
      b.ts <- ts
    end;
    b.ts.(b.n) <- t;
    b.n <- b.n + 1;
    t

  (* Every recorded call as (domain, times in call order). *)
  let calls () =
    Mutex.lock lock;
    let l = List.map (fun b -> (b.dom, Array.sub b.ts 0 b.n)) !bufs in
    Mutex.unlock lock;
    List.filter (fun (_, ts) -> Array.length ts > 0) l
end

(* A clock that stops the run at its first call: [Megaswarm.run] calls
   the clock first when SHARD opens the first window, which is after the
   partitions are built and every open is scheduled — so catching it
   measures exactly the set-up. *)
exception Setup_reached

let stop_clock () = raise Setup_reached

(* ------------------------------------------------------------ spans *)

type span = { s_name : string; s_dom : int; s_t0 : float; s_t1 : float; s_parent : string }

let spans : span list ref = ref []
let main_dom = (Domain.self () :> int)

let add_span ?(parent = "run") ?(dom = main_dom) name t0 t1 =
  spans := { s_name = name; s_dom = dom; s_t0 = t0; s_t1 = t1; s_parent = parent } :: !spans

(* --------------------------------------------------------- samples *)

type sample = {
  wall_s : float;  (** Host seconds of the whole workload call. *)
  items : float list;
      (** Host seconds of each unit of work in the call, in a fixed
          order: each Megaswarm or Swarm run, or each soak schedule. *)
  sessions : int;  (** Session opens offered. *)
  attempted : int;
  failed : int;
  digest : string;  (** Determinism witness. *)
  guards : (string * float * string) list;
      (** Simulated-time results (name, value, unit): identical at a
          fixed seed, so a speed-only change must leave them unchanged. *)
  layers : (string * float) list;  (** Per-layer counts (traced only). *)
  reports : string;
      (** Digest of the rendered UNITES reports, compared across runs that
          must replay each other ([""] where none are compared). *)
}

let guard name s =
  match List.find_opt (fun (n, _, _) -> n = name) s.guards with
  | Some (_, v, _) -> v
  | None -> 0.0

let problems : string list ref = ref []
let check cond msg = if not cond then problems := msg :: !problems

(* The promoted-word and major-collection counts of a [Util.gc_stage]
   sample.  GC counters are per-domain in OCaml 5: they cover the calling
   domain only. *)
let gc_layers (g : Bench_harness.Util.gc_sample) =
  [
    ("sim.gc.promoted_words", g.gs_promoted_words);
    ("sim.gc.major_collections", float_of_int g.gs_major_collections);
  ]

(* Sum of [n * mean] per metric over every session block of rendered
   UNITES reports: the counter totals of runs whose repository is not
   exposed (soak runs).  Count metrics observe 1.0 per event, so
   [n * mean] is exactly the count for them; for others it is the total
   to the report's four significant digits. *)
let report_totals reports names =
  let tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tbl n 0.0) names;
  let add line =
    match Scanf.sscanf line " %s [%_[^]]] n=%d mean=%f" (fun name n mean -> (name, n, mean)) with
    | name, n, mean when Hashtbl.mem tbl name ->
      Hashtbl.replace tbl name (Hashtbl.find tbl name +. (float_of_int n *. mean))
    | _ | (exception (Scanf.Scan_failure _ | End_of_file | Failure _)) -> ()
  in
  List.iter (fun report -> List.iter add (String.split_on_char '\n' report)) reports;
  Hashtbl.find tbl

(* Transport sessions in a rendered UNITES report: its session blocks
   with a positive id.  Pseudo-sessions (scheduler, chaos, wire, ...)
   have ids <= 0. *)
let transport_sessions report =
  List.length
    (List.filter
       (fun line ->
         match Scanf.sscanf line "session %d (" Fun.id with
         | id -> id > 0
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false)
       (String.split_on_char '\n' report))

(* Recovery work of a soak campaign, from its UNITES counter totals. *)
let recovery_counters total =
  let sent = total "segments_sent" and rtx = total "retransmissions" in
  let parity = total "fec_parity_sent" in
  [
    ("mech.recovery.retransmissions", rtx);
    ("mech.recovery.timeouts", total "timeouts");
    ("mech.fec.parity_sent", parity);
    ("mech.fec.recovered", total "fec_recovered");
    ("mech.recovery.useful_ratio", ratio (total "segments_delivered") (sent +. rtx +. parity));
  ]

let counter_names =
  [
    "segments_sent"; "segments_delivered"; "retransmissions"; "timeouts";
    "fec_parity_sent"; "fec_recovered"; "bytes_delivered";
  ]

(* ---------------------------------------------------------- churn *)

let churn_config ~shards ~seed =
  { (Megaswarm.default_config ~sessions:churn_slots ~seed) with Megaswarm.shards }

(* The seeds of one iteration's runs. *)
let churn_seeds ~seed = Adaptive_fleet.Fleet.seeds_of ~master:seed ~n:churn_runs

let churn_setup ~seed () =
  let cfg = churn_config ~shards:1 ~seed:(List.hd (churn_seeds ~seed)) in
  let t0 = now () in
  match Megaswarm.run ~clock:stop_clock cfg with
  | _ -> failwith "churn: the run finished without opening a window"
  | exception Setup_reached -> now () -. t0

let windows_recorded = ref false

(* Turn one traced run's clock calls into spans and the SHARD timings.
   Calls come in (start, end) pairs per window on the domain that ran
   it; the coordinating domain is the one calling [Megaswarm.run]. *)
let shard_spans ~t_enter ~t_exit calls =
  let all = List.concat_map (fun (_, ts) -> Array.to_list ts) calls in
  let first = List.fold_left Float.min infinity all in
  let last = List.fold_left Float.max neg_infinity all in
  let coord = try List.assoc main_dom calls with Not_found -> [||] in
  let barrier = ref 0.0 in
  for i = 1 to (Array.length coord / 2) - 1 do
    barrier := !barrier +. (coord.(2 * i) -. coord.((2 * i) - 1))
  done;
  add_span "megaswarm.build" t_enter first;
  add_span "megaswarm.reduce" last t_exit;
  add_span "megaswarm.windows" first last;
  (* Per-window spans of the first traced run only: thousands per run. *)
  if not !windows_recorded then begin
    windows_recorded := true;
    List.iter
      (fun (dom, ts) ->
        for i = 0 to (Array.length ts / 2) - 1 do
          add_span ~dom ~parent:"megaswarm.windows" "shard.window" ts.(2 * i)
            ts.((2 * i) + 1)
        done)
      calls
  end;
  [
    ("fleet.shard.build_s", first -. t_enter);
    ("core.unites.reduce_s", t_exit -. last);
    ("fleet.shard.barrier_s", !barrier);
  ]

let churn_one ~shards ~traced seed =
  let cfg = churn_config ~shards ~seed in
  let t0 = now () in
  if traced then Rec_clock.reset ();
  let clock = if traced then Some Rec_clock.clock else None in
  let o, gc = Bench_harness.Util.gc_stage (fun () -> Megaswarm.run ?clock cfg) in
  let t1 = now () in
  let layers =
    if not traced then []
    else begin
      let timings = shard_spans ~t_enter:t0 ~t_exit:t1 (Rec_clock.calls ()) in
      let events = float_of_int o.Megaswarm.events_fired in
      let busy = o.Megaswarm.shard_wall_s in
      let busy_max = List.fold_left Float.max 0.0 busy in
      let busy_mean = List.fold_left ( +. ) 0.0 busy /. float_of_int (List.length busy) in
      let windows = float_of_int o.Megaswarm.sync_windows in
      timings @ gc_layers gc
      @ [
          ("sim.engine.events", events);
          ( "sim.gc.minor_words_per_event",
            ratio (List.assoc "sim" o.Megaswarm.stage_minor_words) events );
          ("core.conntable.probes_mean", o.Megaswarm.demux_probes_mean_max);
          ("core.session.peak_live", float_of_int o.Megaswarm.peak_live);
          ( "core.mantts.monitor_walked_per_tick",
            ratio (float_of_int o.Megaswarm.monitor_walked)
              (float_of_int o.Megaswarm.monitor_ticks) );
          ( "core.mantts.tw_expired_per_sweep",
            ratio (float_of_int o.Megaswarm.tw_expired) (float_of_int o.Megaswarm.tw_sweeps) );
          ("core.steer.swaps", float_of_int o.Megaswarm.steer_swaps);
          ("fleet.shard.windows", windows);
          ("fleet.shard.skipped_spans", float_of_int o.Megaswarm.sync_skipped);
          ("fleet.shard.exchanged", float_of_int o.Megaswarm.wan_exchanged);
          ("fleet.shard.events_per_window", ratio events windows);
          ("fleet.shard.busy_s.0", (match busy with b :: _ -> b | [] -> 0.0));
          ("fleet.shard.busy_s.1", (match busy with _ :: b :: _ -> b | _ -> 0.0));
          ("fleet.shard.imbalance", ratio busy_max busy_mean);
        ]
    end
  in
  {
    wall_s = t1 -. t0;
    items = [ t1 -. t0 ];
    sessions = o.Megaswarm.offered;
    attempted = o.Megaswarm.offered;
    failed = o.Megaswarm.refused;
    digest = Printf.sprintf "%016Lx" o.Megaswarm.digest;
    guards = [ ("goodput_mb", float_of_int o.Megaswarm.delivered_bytes /. 1e6, "MB") ];
    layers;
    reports = Digest.to_hex (Digest.string (String.concat "\n" o.Megaswarm.unites_reports));
  }

(* One churn iteration: a batch of runs, each a unit of work.  Per-layer
   counts are those of the first run. *)
let merge runs =
  let first = List.hd runs in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 runs in
  {
    first with
    wall_s = List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 runs;
    items = List.concat_map (fun s -> s.items) runs;
    sessions = sum (fun s -> s.sessions);
    attempted = sum (fun s -> s.attempted);
    failed = sum (fun s -> s.failed);
    digest = String.concat "," (List.map (fun s -> s.digest) runs);
    guards =
      [ ("goodput_mb", List.fold_left (fun acc s -> acc +. guard "goodput_mb" s) 0.0 runs, "MB") ];
    reports = String.concat "," (List.map (fun s -> s.reports) runs);
  }

let churn_run ~shards ~seed ~traced =
  merge (List.map (churn_one ~shards ~traced) (churn_seeds ~seed))

(* ---------------------------------------------------------- storm *)

let storm_config ~seed ~invariants =
  {
    (Bench_harness.Steer_bench.base_config ~sessions:storm_slots ~seed) with
    Swarm.steer = Some Steer.default_policy;
    check_invariants = invariants;
  }

(* The first admitted open derives its SCS through [scs_transform]:
   raising there stops the run at its first open, after the stack is
   built and every open is scheduled. *)
let storm_setup ~seed () =
  let cfg =
    { (storm_config ~seed ~invariants:true) with
      Swarm.scs_transform = Some (fun _ -> raise Setup_reached) }
  in
  let t0 = now () in
  match Swarm.run cfg with
  | _ -> failwith "storm: the run finished without opening a session"
  | exception Setup_reached -> now () -. t0

let storm_run ?(invariants = true) ~seed ~traced () =
  let cfg = storm_config ~seed ~invariants in
  let t0 = now () in
  let o, gc = Bench_harness.Util.gc_stage (fun () -> Swarm.run cfg) in
  let t1 = now () in
  let violations = List.length o.Swarm.violations in
  List.iter
    (fun v -> pf "storm violation: %s\n" (Format.asprintf "%a" Invariant.pp_violation v))
    o.Swarm.violations;
  check (violations = 0)
    (Printf.sprintf "storm recorded %d invariant violations (expected 0)" violations);
  (* Swarm restricts per-session whitebox collection to Setup_latency, so
     that is the latency distribution UNITES holds for this run. *)
  let p50, p99 =
    match Unites.aggregate o.Swarm.unites Unites.Setup_latency with
    | Some s -> (s.Stats.p50 *. 1e3, s.Stats.p99 *. 1e3)
    | None -> (0.0, 0.0)
  in
  let layers =
    if not traced then []
    else
      let events = float_of_int o.Swarm.events_fired in
      let swaps, blocked = Option.value ~default:(0, 0) o.Swarm.steer_stats in
      gc_layers gc
      @ [
          ("sim.engine.events", events);
          ("sim.gc.minor_words_per_event", ratio gc.gs_minor_words events);
          ("core.conntable.probes_mean", o.Swarm.demux_probes_mean);
          ("core.session.peak_live", float_of_int o.Swarm.peak_live);
          ("core.steer.swaps", float_of_int swaps);
          ("core.steer.blocked", float_of_int blocked);
          ("chaos.invariant.violations", float_of_int violations);
          ("chaos.fault.injected", float_of_int o.Swarm.faults_injected);
        ]
  in
  {
    wall_s = t1 -. t0;
    items = [ t1 -. t0 ];
    sessions = o.Swarm.offered;
    attempted = o.Swarm.offered;
    failed = o.Swarm.refused + (o.Swarm.admitted - o.Swarm.closed);
    digest = Printf.sprintf "%016Lx" o.Swarm.digest;
    guards =
      [
        ("goodput_mb", float_of_int o.Swarm.goodput_bytes /. 1e6, "MB");
        ("setup_p50_ms", p50, "ms");
        ("setup_p99_ms", p99, "ms");
      ];
    layers;
    reports = "";
  }

(* ---------------------------------------------------------- sweep *)

(* The campaign's inputs: raw seeds S .. S+k-1 on every environment,
   each with the fault schedule its (seed, environment) draws. *)
let sweep_inputs ~seed =
  List.concat_map
    (fun s ->
      List.map
        (fun env -> (s, env, Soak.schedule_of_seed ~env ~seed:s))
        Soak.all_environments)
    (List.init sweep_seeds (fun i -> seed + i))

let sweep_setup ~seed () =
  let t0 = now () in
  ignore (Sys.opaque_identity (sweep_inputs ~seed));
  now () -. t0

(* Violating (seed, environment) pairs already printed by this run. *)
let reported = Hashtbl.create 8

let sweep_run ~inputs ~traced =
  let t0 = now () in
  let timed, gc =
    Bench_harness.Util.gc_stage (fun () ->
        List.map
          (fun (seed, env, sched) ->
            let t0 = now () in
            let o = Soak.run_schedule ~wire:true ~env ~seed sched in
            (o, now () -. t0))
          inputs)
  in
  let outcomes = List.map fst timed in
  let t1 = now () in
  let failing = List.filter (fun o -> not (Soak.ok o)) outcomes in
  List.iter
    (fun o ->
      if not (Hashtbl.mem reported (o.Soak.o_seed, o.Soak.o_env)) then begin
        Hashtbl.replace reported (o.Soak.o_seed, o.Soak.o_env) ();
        pf "sweep violation: seed %d on %s:%s\n" o.Soak.o_seed
          (Soak.environment_name o.Soak.o_env)
          (String.concat ""
             (List.map
                (fun v -> " " ^ Format.asprintf "%a" Invariant.pp_violation v)
                o.Soak.o_violations))
      end)
    failing;
  let recoveries = List.concat_map (fun o -> List.map snd o.Soak.o_recoveries) outcomes in
  let schedules = List.length outcomes in
  let opened = List.map (fun o -> transport_sessions o.Soak.o_unites) outcomes in
  let sessions = List.fold_left ( + ) 0 opened in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let wire f = sum (fun o -> match o.Soak.o_wire with Some w -> f w | None -> 0) in
  let total = report_totals (List.map (fun o -> o.Soak.o_unites) outcomes) counter_names in
  let layers =
    if not traced then []
    else
      let events = float_of_int (sum (fun o -> o.Soak.o_events)) in
      let encodes = float_of_int (wire (fun w -> w.Session.Wire.encodes)) in
      let reuse =
        List.filter_map
          (fun o -> Option.map (fun w -> w.Session.Wire.pool_reuse_rate) o.Soak.o_wire)
          outcomes
      in
      recovery_counters total @ gc_layers gc
      @ [
          ("sim.engine.events", events);
          ("sim.gc.minor_words_per_event", ratio gc.gs_minor_words events);
          ("net.pdus_per_session", ratio encodes (float_of_int sessions));
          ("net.routing.failovers", float_of_int (sum (fun o -> o.Soak.o_failovers)));
          ("mech.codec.encodes", encodes);
          ("mech.codec.decodes", float_of_int (wire (fun w -> w.Session.Wire.decodes)));
          ("mech.codec.rejects", float_of_int (wire (fun w -> w.Session.Wire.rejects)));
          ("buf.pool.reuse_rate", median reuse);
          ("core.session.peak_live", float_of_int (List.fold_left max 0 opened));
          ("core.mantts.switches", float_of_int (sum (fun o -> o.Soak.o_switches)));
          ("chaos.invariant.violations", float_of_int (sum (fun o -> List.length o.Soak.o_violations)));
          ("chaos.fault.injected", float_of_int (sum (fun o -> o.Soak.o_injected)));
        ]
  in
  {
    wall_s = t1 -. t0;
    items = List.map snd timed;
    sessions;
    attempted = schedules;
    failed = List.length failing;
    digest =
      Printf.sprintf "%016Lx"
        (Adaptive_fleet.Fleet.combine_hashes (List.map (fun o -> o.Soak.o_hash) outcomes));
    guards =
      [
        ("goodput_mb", total "bytes_delivered" /. 1e6, "MB");
        ("recovery_p50_s", quantile recoveries 0.5, "s");
        ("recovery_p99_s", quantile recoveries 0.99, "s");
        ("recovery_samples", float_of_int (List.length recoveries), "count");
      ];
    layers;
    reports = "";
  }

(* ---------------------------------------------------------- micros *)

(* Median ns per operation of [op] over [rounds] timed rounds of [n]
   calls each. *)
let time_ns ?(rounds = 7) ~n name op =
  let per =
    List.init rounds (fun _ ->
        let t0 = now () in
        for i = 0 to n - 1 do
          op i
        done;
        let t1 = now () in
        add_span ~parent:"micro" name t0 t1;
        (t1 -. t0) *. 1e9 /. float_of_int n)
  in
  median per

(* [Engine.schedule_anon] plus the fire of a no-op event, with [depth]
   far-future events pending. *)
let micro_dispatch ~depth =
  let e = Engine.create () in
  let far = Time.sec 1e6 in
  for _ = 1 to depth do
    Engine.schedule_anon e ~at:far ignore
  done;
  let batch = 256 in
  time_ns ~n:400 "sim.engine.dispatch" (fun _ ->
      let base = Engine.now e in
      for j = 1 to batch do
        Engine.schedule_anon e ~at:(Time.add base (Time.us j)) ignore
      done;
      Engine.run ~until:(Time.add base (Time.us batch)) e)
  /. float_of_int batch

(* [Network.send] plus delivery to a null receiver over [hops] links. *)
let micro_send ~hops =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_host topo "a" and b = Topology.add_host topo "b" in
  let link () =
    Profiles.custom ~name:"bench" ~bandwidth_bps:1e12 ~propagation:(Time.us 1)
      ~queue_pkts:100_000 ()
  in
  Topology.set_symmetric_route topo ~a ~b (List.init hops (fun _ -> link ()));
  let net = Network.create e ~rng:(Rng.create 7) topo in
  Network.attach net b ignore;
  let batch = 64 in
  time_ns ~n:300 (Printf.sprintf "net.network.send.%dhop" hops) (fun _ ->
      for _ = 1 to batch do
        Network.send net ~src:a ~dst:b ~bytes:64 ()
      done;
      Engine.run e)
  /. float_of_int batch

let data_pdu () =
  let payload = Msg.of_string (String.init 1400 (fun i -> Char.chr ((i * 131) land 0xff))) in
  Pdu.Data
    {
      conn = 7;
      seg = Pdu.seg ~payload ~stamp:(Time.us 123) ~seq:42 ~bytes:1400 ();
      retransmit = false;
      tx_stamp = Time.us 456;
    }

let micro_codec () =
  let st = Codec.wire_state () in
  let buf = Bytes.create 2048 in
  let one name pdu =
    let len = Codec.encode_into st pdu buf ~off:0 in
    check (len = Pdu.wire_bytes pdu) (name ^ ": encoded length disagrees with Pdu.wire_bytes");
    let enc = time_ns ~n:100_000 ("mech.codec.encode." ^ name) (fun _ ->
        ignore (Sys.opaque_identity (Codec.encode_into st pdu buf ~off:0)))
    in
    let dec = time_ns ~n:100_000 ("mech.codec.decode." ^ name) (fun _ ->
        match Codec.decode_view buf ~off:0 ~len with
        | Ok p -> ignore (Sys.opaque_identity p)
        | Error _ -> failwith "decode_view rejected its own encoding")
    in
    (len, enc, dec)
  in
  let small_len, enc_s, dec_s = one "fin_ack" (Pdu.Fin_ack { conn = 7 }) in
  let data_len, enc_d, dec_d = one "data" (data_pdu ()) in
  check (small_len = 12) "Fin_ack does not encode to 12 bytes";
  check (data_len = 1432) "the data frame does not encode to 1432 bytes";
  [
    ("mech.codec.encode_ns.fin_ack", enc_s);
    ("mech.codec.decode_ns.fin_ack", dec_s);
    ("mech.codec.encode_ns.data", enc_d);
    ("mech.codec.decode_ns.data", dec_d);
  ]

let micro_checksum () =
  let kb = Bytes.init 1024 (fun i -> Char.chr ((i * 7) land 0xff)) in
  time_ns ~n:20_000 "buf.checksum.sum_add" (fun _ ->
      ignore (Sys.opaque_identity (Checksum.sum_add Checksum.sum_init kb 0 1024)))

(* [Conntable.find] on present keys with [live] entries installed. *)
let micro_find ~live =
  let t = Conntable.create () in
  for i = 0 to live - 1 do
    Conntable.insert t ~key:((i * 7919) + 1) ~half_open:false i
  done;
  time_ns ~n:100_000 "core.conntable.find" (fun i ->
      ignore (Sys.opaque_identity (Conntable.find t ((i mod live * 7919) + 1))))

let micro_observe estimator name =
  let u = Unites.create ~estimator ~reservoir:64 (Engine.create ()) in
  Unites.register_session u ~id:1 ~name:"bench";
  time_ns ~n:100_000 ("core.unites.observe." ^ name) (fun i ->
      Unites.observe u ~session:1 Unites.Delivery_latency (float_of_int (i land 1023) *. 1e-5))

let micros ~depth ~live =
  [
    ("sim.engine.dispatch_ns", micro_dispatch ~depth);
    ("net.network.send_ns.1hop", micro_send ~hops:1);
    ("net.network.send_ns.3hop", micro_send ~hops:3);
    ("buf.checksum.ns_per_kb", micro_checksum ());
    ("core.conntable.find_ns", micro_find ~live);
    ("core.unites.observe_ns.p2", micro_observe Stats.P2 "p2");
    ("core.unites.observe_ns.reservoir", micro_observe Stats.Reservoir "reservoir");
  ]
  @ micro_codec ()

(* ----------------------------------------------------- metric sets *)

(* Names and units; BENCHMARK.json lists the same, and run.py checks
   that the two agree. *)
let end_to_end =
  [ ("sessions_per_s", "sessions/s"); ("setup_s", "s"); ("peak_heap_mb", "MB"); ("goodput_mb", "MB") ]

let per_layer =
  [
    ("sim.engine.events", "count"); ("sim.engine.dispatch_ns", "ns");
    ("sim.gc.minor_words_per_event", "words/event"); ("sim.gc.promoted_words", "words");
    ("sim.gc.major_collections", "count");
    ("net.network.send_ns.1hop", "ns"); ("net.network.send_ns.3hop", "ns");
    ("net.pdus_per_session", "pdus/session"); ("net.routing.failovers", "count");
    ("mech.codec.encodes", "count"); ("mech.codec.decodes", "count");
    ("mech.codec.rejects", "count");
    ("mech.codec.encode_ns.fin_ack", "ns"); ("mech.codec.decode_ns.fin_ack", "ns");
    ("mech.codec.encode_ns.data", "ns"); ("mech.codec.decode_ns.data", "ns");
    ("mech.codec.share_bound", "fraction");
    ("buf.checksum.ns_per_kb", "ns/KiB"); ("buf.pool.reuse_rate", "fraction");
    ("mech.recovery.retransmissions", "count"); ("mech.recovery.timeouts", "count");
    ("mech.fec.parity_sent", "count"); ("mech.fec.recovered", "count");
    ("mech.recovery.useful_ratio", "fraction");
    ("core.conntable.probes_mean", "probes"); ("core.conntable.find_ns", "ns");
    ("core.session.peak_live", "sessions");
    ("core.mantts.monitor_walked_per_tick", "monitors/tick");
    ("core.mantts.tw_expired_per_sweep", "entries/sweep"); ("core.mantts.switches", "count");
    ("core.steer.swaps", "count"); ("core.steer.blocked", "count");
    ("core.unites.observe_ns.p2", "ns"); ("core.unites.observe_ns.reservoir", "ns");
    ("core.unites.reduce_s", "s");
    ("chaos.invariant.self_s", "s"); ("chaos.invariant.share", "fraction");
    ("chaos.invariant.violations", "count"); ("chaos.fault.injected", "count");
    ("fleet.shard.windows", "count"); ("fleet.shard.skipped_spans", "count");
    ("fleet.shard.events_per_window", "events/window"); ("fleet.shard.exchanged", "count");
    ("fleet.shard.busy_s.0", "s"); ("fleet.shard.busy_s.1", "s");
    ("fleet.shard.imbalance", "ratio"); ("fleet.shard.barrier_s", "s");
    ("fleet.shard.build_s", "s");
    ("bench.trace.overhead_s", "s"); ("bench.trace.overhead_share", "fraction");
  ]

(* ------------------------------------------------------------ JSON *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* ------------------------------------------------------------ main *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  commit : string;
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME churn|storm|sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--commit", Arg.Set_string commit, "ID recorded with the run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seed N>=0, --seconds S>0 and --trace 0|1 are required";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1;
    commit = !commit }

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Digests from earlier runs of this same executable, keyed by
   workload and seed: the same seed must give the same digest on every
   run, not only within one. *)
let digest_cache ~key ~value =
  let file = Filename.concat results_dir "digests.tsv" in
  let lines =
    if Sys.file_exists file then
      In_channel.with_open_text file In_channel.input_all
      |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
    else []
  in
  match
    List.find_map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ k; v ] when k = key -> Some v
        | _ -> None)
      lines
  with
  | Some v -> check (v = value) (Printf.sprintf "%s: digest %s differs from an earlier run's %s" key value v)
  | None ->
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
        Printf.fprintf oc "%s\t%s\n" key value)

let () =
  let a = parse_args () in
  let seed = a.seed in
  let setup, run =
    match a.workload with
    | "churn" -> (churn_setup ~seed, fun ~traced -> churn_run ~shards:1 ~seed ~traced)
    | "storm" -> (storm_setup ~seed, fun ~traced -> storm_run ~seed ~traced ())
    | "sweep" ->
      let inputs = sweep_inputs ~seed in
      (sweep_setup ~seed, fun ~traced -> sweep_run ~inputs ~traced)
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  mkdir_p results_dir;
  let nproc = Domain.recommended_domain_count () in
  let runparam = Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM") in
  pf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" a.workload seed a.seconds
    (Bool.to_int a.traced);
  pf "env nproc=%d OCAMLRUNPARAM=%S ocaml=%s commit=%s gc=compact-before-each-run\n%!" nproc
    runparam Sys.ocaml_version a.commit;
  let t_start = now () in
  (* Set-up probes and timed iterations until the budget is spent.  A
     traced run alternates untraced and traced iterations (and, on
     storm, an invariants-off one) so their medians give the tracing
     overhead and the oracle's self time on the same machine state. *)
  let deadline = t_start +. a.seconds in
  let setups = ref [] and plain = ref [] and traced = ref [] and inv_off = ref [] in
  let iter = ref 0 and peak_heap_words = ref 0 in
  (* Start an iteration only if one as long as the last still fits the
     budget, so that a run measures at most --seconds. *)
  let last_iter_s = ref 0.0 in
  while now () +. !last_iter_s <= deadline || !iter < min_iterations do
    let t_iter = now () in
    for _ = 1 to probes_per_iteration a.workload do
      Gc.compact ();
      let t0 = now () in
      setups := setup () :: !setups;
      add_span ~parent:"" "setup.probe" t0 (now ())
    done;
    Gc.compact ();
    let t0 = now () in
    let s = run ~traced:false in
    add_span ~parent:"" "iteration" t0 (now ());
    (* OCaml 5.1 does not give heap back, so later iterations reuse the
       first one's peak and grow it by fragmentation: only the first
       iteration's peak is a property of the workload. *)
    if !iter = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    plain := s :: !plain;
    if a.traced then begin
      Gc.compact ();
      let t0 = now () in
      let s = run ~traced:true in
      add_span ~parent:"" "iteration.traced" t0 (now ());
      traced := s :: !traced;
      if a.workload = "storm" then begin
        Gc.compact ();
        inv_off := storm_run ~invariants:false ~seed ~traced:false () :: !inv_off
      end
    end;
    last_iter_s := now () -. t_iter;
    incr iter
  done;
  let measured_s = now () -. t_start in
  let setups = !setups and plain = List.rev !plain and traced = List.rev !traced in
  let setup_s = median setups in
  let first = List.hd plain in
  (* Determinism: every iteration, traced or not, replays the same digest
     and the same simulated results. *)
  List.iter
    (fun s ->
      check (s.digest = first.digest)
        (Printf.sprintf "digest %s differs from the first iteration's %s" s.digest first.digest);
      check (s.guards = first.guards) "simulated results differ between iterations";
      check (s.reports = first.reports) "UNITES reports differ between iterations")
    (plain @ traced);
  digest_cache
    ~key:
      (Printf.sprintf "%s:%s:%d" (Digest.to_hex (Digest.file Sys.executable_name)) a.workload seed)
    ~value:
      (String.concat " "
         (first.digest :: List.map (fun (n, v, _) -> Printf.sprintf "%s=%.17g" n v) first.guards));
  (* Workload-specific cross-checks.  Churn's batch at shards = 2 must
     replay byte-identical digests and UNITES reports; it also gives a
     traced run its per-shard timings. *)
  let sharded = ref [] in
  (match a.workload with
  | "churn" ->
    let r = churn_run ~shards:2 ~seed ~traced:a.traced in
    check (r.digest = first.digest)
      (Printf.sprintf "shards=2 digest %s differs from shards=1's %s" r.digest first.digest);
    check (r.reports = first.reports) "shards=2 UNITES reports differ from shards=1's";
    sharded :=
      List.filter
        (fun (k, _) ->
          List.mem k
            [ "fleet.shard.busy_s.0"; "fleet.shard.busy_s.1"; "fleet.shard.imbalance";
              "fleet.shard.barrier_s" ])
        r.layers
  | "storm" ->
    List.iter
      (fun s ->
        check (guard "goodput_mb" s = guard "goodput_mb" first)
          "storm goodput differs with the invariant oracle off")
      !inv_off
  | _ -> ());
  (* Set-up inside one iteration, excluded from the rate: the fastest
     probe, as each unit of work below is charged its fastest repetition.
     Sweep's inputs are derived before the iterations, so its set-up is
     not inside them. *)
  let in_run_setup =
    let runs = match a.workload with "sweep" -> 0 | "storm" -> 1 | _ -> churn_runs in
    float_of_int runs *. List.fold_left Float.min infinity setups
  in
  let rate wall = float_of_int first.sessions /. Float.max 1e-9 (wall -. in_run_setup) in
  (* The host's speed switches between regimes up to 2x apart for
     stretches of a fraction of a second to many seconds (a CPU-bound
     loop shows it as well as the workloads).  So each unit of work is
     charged its fastest repetition in the run, and the rate is over
     the sum of those: units short enough to fit in one fast stretch
     make that sum steady from run to run. *)
  let best_wall =
    let mins = Array.of_list first.items in
    List.iter (fun s -> List.iteri (fun i t -> mins.(i) <- Float.min mins.(i) t) s.items) plain;
    Array.fold_left ( +. ) 0.0 mins
  in
  let sessions_per_s = rate best_wall in
  let peak_heap_mb = float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let attempted = List.fold_left (fun acc s -> acc + s.attempted) 0 plain in
  let failed = List.fold_left (fun acc s -> acc + s.failed) 0 plain in
  (* Human-readable report: every metric the workload defines. *)
  let line name value unit = pf "metric %-34s %.6g %s\n" name value unit in
  line "sessions_per_s" sessions_per_s "sessions/s";
  if a.workload = "sweep" then
    line "schedules_per_s"
      (sessions_per_s *. float_of_int first.attempted /. float_of_int first.sessions)
      "schedules/s";
  line "setup_s" setup_s "s";
  line "peak_heap_mb" peak_heap_mb "MB";
  List.iter (fun (n, v, u) -> line n v u) first.guards;
  line "failed_share" (ratio (float_of_int failed) (float_of_int attempted)) "fraction";
  pf "iterations=%d measured_s=%.3f sessions_per_s median=%.6g wall_s median=%.4f min=%.4f \
      max=%.4f setup_s probes=%d min=%.4f max=%.4f\n"
    (List.length plain) measured_s (median (List.map (fun s -> rate s.wall_s) plain))
    (median (List.map (fun s -> s.wall_s) plain))
    (List.fold_left Float.min infinity (List.map (fun s -> s.wall_s) plain))
    (List.fold_left Float.max 0.0 (List.map (fun s -> s.wall_s) plain))
    (List.length setups)
    (List.fold_left Float.min infinity setups)
    (List.fold_left Float.max 0.0 setups);
  let metrics =
    if not a.traced then
      [
        ("sessions_per_s", sessions_per_s);
        ("setup_s", setup_s);
        ("peak_heap_mb", peak_heap_mb);
        ("goodput_mb", guard "goodput_mb" first);
      ]
    else begin
      let last = List.hd (List.rev traced) in
      let plain_wall = median (List.map (fun s -> s.wall_s) plain) in
      let traced_wall = median (List.map (fun s -> s.wall_s) traced) in
      let self_s, share =
        match !inv_off with
        | [] -> (0.0, 0.0)
        | offs ->
          let off = median (List.map (fun s -> s.wall_s) offs) in
          (plain_wall -. off, ratio (plain_wall -. off) plain_wall)
      in
      let get l name = Option.value ~default:0.0 (List.assoc_opt name l) in
      let live = max 1 (int_of_float (get last.layers "core.session.peak_live")) in
      let micro = micros ~depth:live ~live in
      (* Every frame costed as a full 1,432-byte data frame: an upper
         bound on the codec's share of the run. *)
      let codec_s =
        1e-9
        *. ((get last.layers "mech.codec.encodes" *. get micro "mech.codec.encode_ns.data")
           +. (get last.layers "mech.codec.decodes" *. get micro "mech.codec.decode_ns.data"))
      in
      let found =
        !sharded @ last.layers @ micro
        @ [
            ("mech.codec.share_bound", ratio codec_s plain_wall);
            ("chaos.invariant.self_s", self_s);
            ("chaos.invariant.share", share);
            ("bench.trace.overhead_s", traced_wall -. plain_wall);
            ("bench.trace.overhead_share", ratio (traced_wall -. plain_wall) plain_wall);
          ]
      in
      List.map (fun (name, _) -> (name, get found name)) per_layer
    end
  in
  (* Spans and counts, written once at the end. *)
  let trace_file =
    Filename.concat results_dir
      (Printf.sprintf "trace-%s-seed%d-trace%d.json" a.workload seed (Bool.to_int a.traced))
  in
  Out_channel.with_open_text trace_file (fun oc ->
      Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"nproc\": %d, \"ocamlrunparam\": %s,\n"
        (json_string a.workload) seed nproc (json_string runparam);
      Printf.fprintf oc " \"ocaml\": %s, \"commit\": %s, \"spans\": [\n"
        (json_string Sys.ocaml_version) (json_string a.commit);
      List.iteri
        (fun i s ->
          Printf.fprintf oc "%s  {\"name\": %s, \"parent\": %s, \"domain\": %d, \"start\": %s, \"end\": %s}\n"
            (if i = 0 then "" else ",")
            (json_string s.s_name) (json_string s.s_parent) s.s_dom
            (json_float (s.s_t0 -. t_start)) (json_float (s.s_t1 -. t_start)))
        (List.rev !spans);
      Printf.fprintf oc " ],\n \"metrics\": {%s}}\n"
        (String.concat ", "
           (List.map (fun (n, v) -> Printf.sprintf "%s: %s" (json_string n) (json_float v)) metrics)));
  List.iter (fun (n, v) -> check (Float.is_finite v) (n ^ " is not a finite number")) metrics;
  List.iter (fun p -> pf "CHECK FAILED: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  let unit_of name = List.assoc name (end_to_end @ per_layer) in
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_float v)
              (json_string (unit_of n)))
          metrics));
  exit (if correct then 0 else 1)
