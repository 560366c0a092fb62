open Adaptive_sim
open Adaptive_net
open Adaptive_core
open Adaptive_chaos

type config = {
  sessions : int;
  churn_rounds : int;
  seed : int;
  payload_bytes : int;
  open_window : Time.t;
  admission : Mantts.admission_policy option;
  monitored_share : int;
  wire : bool;
  steer : Steer.policy option;
  chaos : Fault.schedule option;
  check_invariants : bool;
  scs_transform : (Scs.t -> Scs.t) option;
  link_bps : float;
  link_mtu : int;
  link_queue_pkts : int;
  host_speed : float;
}

let default_config ~sessions ~seed =
  {
    sessions;
    churn_rounds = 2;
    seed;
    payload_bytes = 2000;
    open_window = Time.sec 1.0;
    admission = None;
    monitored_share = 10;
    wire = false;
    steer = None;
    chaos = None;
    check_invariants = false;
    scs_transform = None;
    link_bps = 1e9;
    link_mtu = 65535;
    link_queue_pkts = 4096;
    host_speed = 1.0;
  }

type outcome = {
  offered : int;
  admitted : int;
  degraded : int;
  refused : int;
  closed : int;
  delivered_msgs : int;
  delivered_bytes : int;
  goodput_bytes : int;  (* application-useful bytes: see the .mli *)
  peak_live : int;
  sim_time : Time.t;
  events_fired : int;
  digest : int64;
  demux_probes_mean : float;
  demux_probes_p99 : float;
  occupancy_p99 : float;
  table_capacity : int;
  timewait_drops : int;
  wire_report : Session.Wire.report option;
  steer_stats : (int * int) option;  (* (swaps applied, blocked) *)
  faults_injected : int;
  violations : Invariant.violation list;
  unites : Unites.t;
}

let run cfg =
  if cfg.sessions <= 0 then invalid_arg "Swarm.run: sessions must be positive";
  let lan =
    Profiles.custom ~name:"swarm-lan" ~bandwidth_bps:cfg.link_bps
      ~propagation:(Time.us 50) ~queue_pkts:cfg.link_queue_pkts
      ~mtu:cfg.link_mtu ()
  in
  let part =
    Churn.create ~seed:cfg.seed ~estimator:Stats.Reservoir ~prefix:"swarm" ~lan
      ~host_speed:cfg.host_speed
  in
  let stack = part.Churn.stack in
  let engine = stack.Adaptive.engine in
  let unites = stack.Adaptive.unites in
  let mantts = Adaptive.mantts stack in
  let wire_handle =
    if cfg.wire then Some (Session.Wire.install stack.Adaptive.net) else None
  in
  Mantts.set_admission mantts cfg.admission;
  let client_disp = Mantts.dispatcher (Mantts.entity mantts part.Churn.client) in
  let server_disp = Mantts.dispatcher (Mantts.entity mantts part.Churn.server) in
  let steer = Option.map (fun policy -> Steer.create ~policy mantts) cfg.steer in
  let checker =
    if cfg.check_invariants then
      (* No [?trace]: the checker's per-delivery events would swamp the
         digest; violations surface through [violations] instead. *)
      Some (Invariant.create ~engine ~unites ~mantts ())
    else None
  in
  let injector =
    Option.map
      (fun schedule ->
        Fault.install ~engine ~trace:part.Churn.trace ~unites
          { Fault.links = [ lan ]; tail_links = [];
            hosts = [ part.Churn.client_cpu; part.Churn.server_cpu ]; routing = None }
          schedule)
      cfg.chaos
  in
  (match (checker, injector) with
  | Some c, Some inj -> Invariant.set_injector c inj
  | (Some _ | None), _ -> ());
  Option.iter
    (fun c ->
      Invariant.attach_dispatcher c client_disp;
      Invariant.attach_dispatcher c server_disp;
      Invariant.start c)
    checker;
  (* The checker's sweep and the fault schedule are armed before the
     opens, so their events keep their place in same-instant ties. *)
  Churn.schedule_opens part
    ~rng:(Rng.create (cfg.seed lxor 0x53574152 (* "SWAR" *)))
    ~slots:cfg.sessions ~churn_rounds:cfg.churn_rounds
    ~payload_bytes:cfg.payload_bytes ~monitored_share:cfg.monitored_share
    ~name:(Printf.sprintf "sw-%d-%d")
    ~open_at:(fun slot -> slot * cfg.open_window / cfg.sessions)
    ?scs_transform:cfg.scs_transform ?steer ();
  Adaptive.run stack
    ~until:(Churn.horizon ~open_window:cfg.open_window ~churn_rounds:cfg.churn_rounds);
  Option.iter Invariant.finish checker;
  let summary_of m =
    Option.value
      ~default:(Stats.summarize (Stats.create ~reservoir:8 ()))
      (Unites.stats unites ~session:Unites.swarm_session m)
  in
  let probes = summary_of Unites.Demux_probes in
  let occupancy = summary_of Unites.Table_occupancy in
  Option.iter (fun h -> Session.Wire.observe h unites) wire_handle;
  {
    offered = part.Churn.offered;
    admitted = part.Churn.admitted;
    degraded = part.Churn.degraded;
    refused = part.Churn.refused;
    closed = Trace.counter part.Churn.trace "close";
    delivered_msgs = part.Churn.delivered_msgs;
    delivered_bytes = part.Churn.delivered_bytes;
    goodput_bytes = Churn.goodput part;
    peak_live = part.Churn.peak_live;
    sim_time = Adaptive.now stack;
    events_fired = (Engine.counters engine).Engine.events_fired;
    digest = Trace.hash part.Churn.trace;
    demux_probes_mean = probes.Stats.mean;
    demux_probes_p99 = probes.Stats.p99;
    occupancy_p99 = occupancy.Stats.p99;
    table_capacity = Session.Dispatcher.table_capacity client_disp;
    timewait_drops =
      int_of_float (Unites.total unites ~session:Unites.swarm_session Unites.Timewait_drops);
    wire_report = Option.map Session.Wire.report wire_handle;
    steer_stats =
      Option.map (fun st -> (Steer.swap_count st, Steer.blocked_count st)) steer;
    faults_injected =
      (match injector with Some inj -> Fault.injected inj | None -> 0);
    violations = (match checker with Some c -> Invariant.violations c | None -> []);
    unites;
  }

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>swarm: offered=%d admitted=%d degraded=%d refused=%d closed=%d@,\
     delivered: %d msgs, %d bytes; peak live=%d; table capacity=%d@,\
     demux probes: mean=%.3f p99=%.0f; occupancy p99=%.3f; timewait drops=%d@,\
     events=%d sim_time=%a digest=0x%Lx" o.offered o.admitted o.degraded
    o.refused o.closed o.delivered_msgs o.delivered_bytes o.peak_live
    o.table_capacity o.demux_probes_mean o.demux_probes_p99 o.occupancy_p99
    o.timewait_drops o.events_fired Time.pp o.sim_time o.digest;
  (match o.wire_report with
  | None -> ()
  | Some w ->
    Format.fprintf fmt
      "@,wire: encodes=%d decodes=%d rejects=%d fused_sums=%d pool_reuse=%.3f"
      w.Session.Wire.encodes w.Session.Wire.decodes w.Session.Wire.rejects
      w.Session.Wire.fused_sums w.Session.Wire.pool_reuse_rate);
  (match o.steer_stats with
  | None -> ()
  | Some (applied, blocked) ->
    Format.fprintf fmt
      "@,steer: swaps=%d blocked=%d faults=%d violations=%d goodput=%d"
      applied blocked o.faults_injected (List.length o.violations)
      o.goodput_bytes);
  Format.fprintf fmt "@]"
