open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core
open Adaptive_fleet

type config = {
  sessions : int;
  partitions : int;
  shards : int;
  churn_rounds : int;
  seed : int;
  payload_bytes : int;
  open_window : Time.t;
  monitored_share : int;
  cross_share : int;
  wan_latency : Time.t;
  wan_spread : Time.t;
  session_cap : int option;
  steer : Steer.policy option;
}

(* Deterministic per-pair one-way WAN latency: the base plus a spread
   term that depends only on the ordered (src, dst) pair, so SHARD's
   per-pair lookahead matrix and the stamped arrival times agree by
   construction at every shard count.  [wan_spread = zero] collapses to
   the uniform-latency WAN. *)
let pair_latency cfg ~src ~dst =
  if cfg.wan_spread = Time.zero then cfg.wan_latency
  else Time.add cfg.wan_latency (((31 * src) + (17 * dst)) mod (cfg.wan_spread + 1))

let default_config ~sessions ~seed =
  {
    sessions;
    partitions = 4;
    shards = 1;
    churn_rounds = 1;
    seed;
    payload_bytes = 2000;
    open_window = Time.sec 1.0;
    monitored_share = 10;
    cross_share = 16;
    wan_latency = Time.ms 5;
    wan_spread = Time.zero;
    session_cap = None;
    steer = None;
  }

type outcome = {
  offered : int;
  admitted : int;
  refused : int;
  cross_opened : int;
  delivered_msgs : int;
  delivered_bytes : int;
  wan_exchanged : int;
  steer_swaps : int;
  peak_live : int;
  events_fired : int;
  sim_time : Time.t;
  digest : int64;
  partition_digests : int64 list;
  demux_probes_mean_max : float;
  monitor_ticks : int;
  monitor_walked : int;
  tw_sweeps : int;
  tw_expired : int;
  sync_windows : int;
  sync_skipped : int;
  shard_wall_s : float list;
  stage_minor_words : (string * float) list;
  unites_reports : string list;
}

(* Cross-partition PDUs travel the WAN as plain values: the frame, its
   size, and the addresses as the {e receiver} must see them.  Virtual
   addresses above [wan_base] name (partition, role) pairs; they are
   routeless in every local topology, so the dispatcher's replies to a
   remote peer leave through the same remote hook that delivered it. *)
let wan_base = 0x10000

type wan_msg = {
  w_src : Network.addr;  (* virtual (partition, role) of the sender *)
  w_dst : Network.addr;  (* real address in the destination partition *)
  w_bytes : int;
  w_sent : Time.t;
  w_pdu : Pdu.t;
}

type partition = {
  p_index : int;
  p_churn : Churn.t;
  p_steer : Steer.t option;  (* partition-local steering engine: state
                                never crosses the barrier, so the shard
                                digest-parity witness is unaffected *)
  mutable p_outbox : (Time.t * int * wan_msg) list;  (* newest first *)
  mutable p_cross : int;
}

(* Virtual address of (partition, role): role 0 = client, 1 = server. *)
let virtual_addr ~partition ~role = wan_base + (partition * 2) + role

let cross_scs = { Scs.default with Scs.connection = Params.Implicit }

let build_partition cfg ~index ~seed =
  let churn =
    Churn.create ~seed ~estimator:Stats.P2 ~prefix:"ms"
      ~lan:
        (Profiles.custom ~name:"ms-lan" ~bandwidth_bps:1e9
           ~propagation:(Time.us 50) ~queue_pkts:4096 ())
      ~host_speed:1.0
  in
  let stack = churn.Churn.stack in
  (* Stripe connection ids by partition so a cross-partition session can
     never collide with a local one in the remote connection table — and
     so the id space is identical however many shards execute. *)
  Network.set_conn_stripe stack.Adaptive.net ~stride:cfg.partitions ~offset:index;
  (* GIGASWARM memory bound: cap the per-session metric population so the
     UNITES tables — and the rendered report — stay O(cap) however many
     sessions churn through.  Overflowed sessions fold into one shared
     bucket; totals are preserved.  The trace digest never sees UNITES
     routing, so the cap cannot perturb the parity oracle. *)
  Option.iter (Unites.set_session_cap stack.Adaptive.unites) cfg.session_cap;
  {
    p_index = index;
    p_churn = churn;
    p_steer =
      Option.map (fun policy -> Steer.create ~policy (Adaptive.mantts stack)) cfg.steer;
    p_outbox = [];
    p_cross = 0;
  }

(* Install partition [p]'s remote hook: map the unrouted virtual
   destination to (partition, real address), the real source to its
   virtual name, stamp the WAN arrival, and queue for the next barrier. *)
let install_wan cfg parts p =
  let net = p.p_churn.Churn.stack.Adaptive.net in
  let engine = p.p_churn.Churn.stack.Adaptive.engine in
  Network.set_remote net (fun ~src ~dst ~bytes pdu ->
      if dst >= wan_base && dst < wan_base + (cfg.partitions * 2) then begin
        let target = (dst - wan_base) / 2 in
        let role = (dst - wan_base) mod 2 in
        let dest = parts.(target).p_churn in
        let real_dst = if role = 1 then dest.Churn.server else dest.Churn.client in
        let src_role = if src = p.p_churn.Churn.server then 1 else 0 in
        let now = Engine.now engine in
        p.p_outbox <-
          ( Time.add now (pair_latency cfg ~src:p.p_index ~dst:target),
            target,
            {
              w_src = virtual_addr ~partition:p.p_index ~role:src_role;
              w_dst = real_dst;
              w_bytes = bytes;
              w_sent = now;
              w_pdu = pdu;
            } )
          :: p.p_outbox
      end)

(* Every [cross_share]-th local slot also opens, on its first round, an
   implicit-connection session to the next partition's server over the
   WAN (ring order), bypassing MANTTS, and closes it 600 ms later (the
   short declared duration). *)
let open_cross cfg p slot round =
  if cfg.cross_share > 0 && slot mod cfg.cross_share = 0 && round = 0 then begin
    let c = p.p_churn in
    let engine = c.Churn.stack.Adaptive.engine in
    let client_disp =
      Mantts.dispatcher (Mantts.entity (Adaptive.mantts c.Churn.stack) c.Churn.client)
    in
    p.p_cross <- p.p_cross + 1;
    let peer =
      virtual_addr ~partition:((p.p_index + 1) mod cfg.partitions) ~role:1
    in
    let name = Printf.sprintf "xms-%d-%d-%d" p.p_index slot round in
    let session =
      Session.connect ~name client_disp ~peers:[ peer ] ~scs:cross_scs ()
    in
    Trace.event c.Churn.trace ~at:(Engine.now engine) ~category:"xopen"
      ~detail:(string_of_int (Session.id session));
    Session.send session ~bytes:(max 64 (cfg.payload_bytes / 2)) ();
    Engine.schedule_anon engine
      ~at:(Time.add (Engine.now engine) (Time.ms 600))
      (fun () ->
        Trace.event c.Churn.trace ~at:(Engine.now engine) ~category:"xclose"
          ~detail:(string_of_int (Session.id session));
        Session.close session)
  end

let schedule_opens cfg p =
  let local_slots =
    (cfg.sessions / cfg.partitions)
    + if p.p_index < cfg.sessions mod cfg.partitions then 1 else 0
  in
  let prefix = "ms-" ^ string_of_int p.p_index ^ "-" in
  Churn.schedule_opens p.p_churn
    ~rng:(Rng.split_ix (Rng.create (cfg.seed lxor 0x4D534D53 (* "MSMS" *))) p.p_index)
    ~slots:local_slots ~churn_rounds:cfg.churn_rounds
    ~payload_bytes:cfg.payload_bytes ~monitored_share:cfg.monitored_share
    ~name:(fun slot round ->
      prefix ^ string_of_int slot ^ "-" ^ string_of_int round)
      (* Global stagger: partition [p] owns global slots p, p+P, p+2P, …
         so offered load is phase-interleaved across partitions exactly
         as one flat swarm would see it.  The +1 ns keeps the very first
         injection strictly inside the first conservative window. *)
    ~open_at:(fun slot ->
      1 + (((slot * cfg.partitions) + p.p_index) * cfg.open_window / cfg.sessions))
    ?steer:p.p_steer ~after_open:(open_cross cfg p) ()

let run ?clock cfg =
  if cfg.sessions <= 0 then invalid_arg "Megaswarm.run: sessions must be positive";
  if cfg.partitions < 1 then
    invalid_arg "Megaswarm.run: partitions must be >= 1";
  if cfg.shards < 1 then invalid_arg "Megaswarm.run: shards must be >= 1";
  let seeds = Array.of_list (Fleet.seeds_of ~master:cfg.seed ~n:cfg.partitions) in
  (* Stage allocation accounting: minor words on the coordinating domain
     per phase.  Authoritative at shards = 1 (OCaml 5 GC counters are
     per-domain); at shards > 1 the sim stage misses worker-domain
     allocation and is a lower bound.  The split keeps the hot-path
     figure (sim) separate from one-time setup and O(sessions) report
     rendering (reduce). *)
  let w0 = Gc.minor_words () in
  let parts =
    Array.init cfg.partitions (fun i ->
        build_partition cfg ~index:i ~seed:seeds.(i))
  in
  Array.iter (install_wan cfg parts) parts;
  let w_build = Gc.minor_words () in
  Array.iter (schedule_opens cfg) parts;
  let w_sched = Gc.minor_words () in
  let churns = Array.map (fun p -> p.p_churn) parts in
  let stack i = churns.(i).Churn.stack in
  let shard =
    Shard.create
      ~pair_lookahead:(fun ~src ~dst -> pair_latency cfg ~src ~dst)
      ~next_deadline:(fun i -> Engine.next_deadline (stack i).Adaptive.engine)
      ?clock ~lookahead:cfg.wan_latency ~partitions:cfg.partitions
      ~run_to:(fun i until ->
        Engine.run ~until (stack i).Adaptive.engine)
      ~drain:(fun i ->
        let msgs = List.rev parts.(i).p_outbox in
        parts.(i).p_outbox <- [];
        List.map
          (fun (at, dst, m) ->
            { Shard.out_at = at; out_dst = dst; out_payload = m })
          msgs)
      ~inject:(fun i ~at ~src:_ m ->
        let net = (stack i).Adaptive.net in
        Engine.schedule_anon (stack i).Adaptive.engine ~at (fun () ->
            Network.deliver_remote net ~src:m.w_src ~dst:m.w_dst
              ~bytes:m.w_bytes ~sent_at:m.w_sent m.w_pdu))
      ()
  in
  let wan_exchanged =
    Shard.run shard ~shards:cfg.shards
      ~until:(Churn.horizon ~open_window:cfg.open_window ~churn_rounds:cfg.churn_rounds)
  in
  let sync = Shard.last_stats shard in
  let w_sim = Gc.minor_words () in
  let digests = Array.to_list (Array.map (fun c -> Trace.hash c.Churn.trace) churns) in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 churns in
  let fold f init = Array.fold_left f init churns in
  let probes_mean c =
    Unites.stats c.Churn.stack.Adaptive.unites ~session:Unites.swarm_session
      Unites.Demux_probes
    |> Option.fold ~none:0.0 ~some:(fun s -> s.Stats.mean)
  in
  (* Tick-cost telemetry across every partition: monitor-tick working
     set and coalesced time-wait sweeps (client + server dispatchers). *)
  let tick_stats c = Mantts.tick_stats (Adaptive.mantts c.Churn.stack) in
  let tw_stats c =
    let sweeps addr =
      Session.Dispatcher.tw_sweep_stats
        (Mantts.dispatcher (Mantts.entity (Adaptive.mantts c.Churn.stack) addr))
    in
    let (s, e), (s', e') = (sweeps c.Churn.client, sweeps c.Churn.server) in
    (s + s', e + e')
  in
  let unites_reports =
    Array.to_list
      (Array.mapi
         (fun i c ->
           Printf.sprintf "partition %d\n" i
           ^ Unites.render c.Churn.stack.Adaptive.unites)
         churns)
  in
  let stage_minor_words =
    [
      ("build", w_build -. w0);
      ("schedule", w_sched -. w_build);
      ("sim", w_sim -. w_sched);
      ("reduce", Gc.minor_words () -. w_sim);
    ]
  in
  {
    offered = sum (fun c -> c.Churn.offered);
    admitted = sum (fun c -> c.Churn.admitted);
    refused = sum (fun c -> c.Churn.refused);
    cross_opened = Array.fold_left (fun acc p -> acc + p.p_cross) 0 parts;
    delivered_msgs = sum (fun c -> c.Churn.delivered_msgs);
    delivered_bytes = sum (fun c -> c.Churn.delivered_bytes);
    wan_exchanged;
    steer_swaps =
      Array.fold_left
        (fun acc p -> acc + Option.fold ~none:0 ~some:Steer.swap_count p.p_steer)
        0 parts;
    peak_live = fold (fun acc c -> max acc c.Churn.peak_live) 0;
    events_fired =
      sum (fun c -> (Engine.counters c.Churn.stack.Adaptive.engine).Engine.events_fired);
    sim_time = fold (fun acc c -> Time.max acc (Adaptive.now c.Churn.stack)) Time.zero;
    digest = Fleet.combine_hashes digests;
    partition_digests = digests;
    demux_probes_mean_max = fold (fun acc c -> Float.max acc (probes_mean c)) 0.0;
    monitor_ticks = sum (fun c -> fst (tick_stats c));
    monitor_walked = sum (fun c -> snd (tick_stats c));
    tw_sweeps = sum (fun c -> fst (tw_stats c));
    tw_expired = sum (fun c -> snd (tw_stats c));
    sync_windows = sync.Shard.windows;
    sync_skipped = sync.Shard.skipped_spans;
    shard_wall_s = Array.to_list sync.Shard.shard_wall_s;
    stage_minor_words;
    unites_reports;
  }

let pp_outcome fmt o =
  if o.steer_swaps > 0 then
    Format.fprintf fmt "@[<v>steer swaps=%d@,@]" o.steer_swaps;
  Format.fprintf fmt
    "@[<v>megaswarm: offered=%d admitted=%d refused=%d cross=%d@,\
     delivered: %d msgs, %d bytes; peak live=%d; wan msgs=%d@,\
     demux probes mean (worst partition)=%.3f@,\
     monitor ticks=%d walked=%d; tw sweeps=%d expired=%d@,\
     sync windows=%d skipped spans=%d@,\
     events=%d sim_time=%a digest=0x%Lx@,\
     partition digests: %a@]"
    o.offered o.admitted o.refused o.cross_opened o.delivered_msgs
    o.delivered_bytes o.peak_live o.wan_exchanged o.demux_probes_mean_max
    o.monitor_ticks o.monitor_walked o.tw_sweeps o.tw_expired
    o.sync_windows o.sync_skipped
    o.events_fired Time.pp o.sim_time o.digest
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
       (fun fmt d -> Format.fprintf fmt "0x%Lx" d))
    o.partition_digests
