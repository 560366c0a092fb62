open Adaptive_sim
open Adaptive_net
open Adaptive_mech
open Adaptive_core

(* Goodput accounting: both endpoints of a connection share the wire
   connection id, so the open records what each session promised its
   application (before its first segment is sent) and the server's
   deliveries add up what arrived.  A contract is settled and dropped
   the moment all of its bytes have arrived, so the table holds only
   transfers still in flight, not every session ever opened. *)
type contract = { requested : int; tolerant : bool; mutable got : int }

type ledger = {
  pending : (int, contract) Hashtbl.t;
  mutable settled : int;  (* bytes of fully arrived transfers *)
}

type t = {
  stack : Adaptive.stack;
  client : Network.addr;
  server : Network.addr;
  client_cpu : Host.t;
  server_cpu : Host.t;
  trace : Trace.t;
  ledger : ledger;
  mutable offered : int;
  mutable admitted : int;
  mutable degraded : int;
  mutable refused : int;
  mutable delivered_msgs : int;
  mutable delivered_bytes : int;
  mutable peak_live : int;
}

(* A modern host CPU: the 1992 defaults (100 us/packet) would serialize
   10k sessions' traffic into minutes of simulated backlog and measure the
   host model, not the dispatcher.  The two endpoints stand for a whole
   population of hosts, so benches that scale the link with the session
   count scale [speed] too.  [Host] applies it to the per-byte checksum
   work the session layer charges as well, which would otherwise cap a
   host near 55k pkts/s however fast it claims to be. *)
let fast_host ~speed engine =
  Host.create ~per_packet:(Time.us 2) ~per_byte_copy:(Time.ns 1) ~copies:1 ~speed
    engine

(* Short-declared sessions (the bulk) skip the MANTTS policy monitor;
   every [monitored_share]-th is long-declared and keeps one. *)
let short_duration = Time.ms 600
let long_duration = Time.minutes 2

let create ~seed ~estimator ~prefix ~lan ~host_speed =
  let stack =
    Adaptive.create_stack ~seed ~metric_reservoir:64 ~metric_estimator:estimator ()
  in
  let engine = stack.Adaptive.engine in
  let client_cpu = fast_host ~speed:host_speed engine in
  let server_cpu = fast_host ~speed:host_speed engine in
  let client = Adaptive.add_host ~host_cpu:client_cpu stack (prefix ^ "-client") in
  let server = Adaptive.add_host ~host_cpu:server_cpu stack (prefix ^ "-server") in
  Adaptive.connect_hosts stack client server [ lan ];
  let trace = Trace.create ~log_capacity:256 () in
  Unites.attach_trace stack.Adaptive.unites trace;
  let ledger = { pending = Hashtbl.create 16; settled = 0 } in
  let t =
    { stack; client; server; client_cpu; server_cpu; trace; ledger; offered = 0;
      admitted = 0; degraded = 0; refused = 0; delivered_msgs = 0;
      delivered_bytes = 0; peak_live = 0 }
  in
  Mantts.set_app_handler (Mantts.entity (Adaptive.mantts stack) server)
    (fun session d ->
      t.delivered_msgs <- t.delivered_msgs + 1;
      t.delivered_bytes <- t.delivered_bytes + d.Session.bytes;
      let conn = Session.id session in
      (match Hashtbl.find_opt ledger.pending conn with
      | Some c ->
        c.got <- c.got + d.Session.bytes;
        if c.got >= c.requested then begin
          ledger.settled <- ledger.settled + c.requested;
          Hashtbl.remove ledger.pending conn
        end
      | None -> ());
      (* Same bytes as [Printf.sprintf "%d:%d"] without the format
         interpreter: this string is folded into the trace digest per
         delivered message. *)
      Trace.event trace ~at:d.Session.delivered_at ~category:"deliver"
        ~detail:(string_of_int conn ^ ":" ^ string_of_int d.Session.bytes));
  t

let schedule_opens t ~rng ~slots ~churn_rounds ~payload_bytes ~monitored_share
    ~name ~open_at ?scs_transform ?steer ?(after_open = fun _ _ -> ()) () =
  if payload_bytes < 1 then
    invalid_arg
      (Printf.sprintf "Churn.schedule_opens: payload_bytes must be >= 1 (got %d)"
         payload_bytes);
  let engine = t.stack.Adaptive.engine in
  let mantts = Adaptive.mantts t.stack in
  let client_disp = Mantts.dispatcher (Mantts.entity mantts t.client) in
  let apps = Array.of_list Workloads.all in
  (* One ACD per (application, monitored) shape, shared across every open:
     descriptors are immutable and MANTTS only reads them, and handing the
     same physical value back makes the MANTTS synthesis memo's structural
     key comparison short-circuit on pointer equality.  Per-session
     whitebox collection is setup latency only: at ten thousand sessions,
     anything more would dominate memory, and the swarm pseudo-session
     already captures the system-level picture. *)
  let acds =
    Array.init (2 * Array.length apps) (fun key ->
        let duration = if key mod 2 = 1 then long_duration else short_duration in
        Acd.make
          ~tmc:{ Acd.collect = [ Unites.Setup_latency ]; sample_every = Time.sec 1.0 }
          ~participants:[ t.server ]
          ~qos:{ (Workloads.qos apps.(key / 2)) with Qos.duration = Some duration }
          ())
  in
  let acd_for slot =
    let monitored = monitored_share > 0 && slot mod monitored_share = 0 in
    acds.((2 * (slot mod Array.length apps)) + Bool.to_int monitored)
  in
  let event category detail =
    Trace.event t.trace ~at:(Engine.now engine) ~category ~detail
  in
  let rec attempt slot round ~at =
    Engine.schedule_anon engine ~at (fun () -> open_now slot round)
  and reopen slot round ~delay =
    if round < churn_rounds then
      attempt slot (round + 1) ~at:(Time.add (Engine.now engine) delay)
  and open_now slot round =
    t.offered <- t.offered + 1;
    let slot_rng = Rng.split_ix rng ((slot * 131) + round) in
    let acd = acd_for slot in
    let lifetime = Time.ms (300 + Rng.int slot_rng 500) in
    (match
       Mantts.try_open_session ~name:(name slot round) ?scs_transform mantts
         ~src:t.client ~acd ()
     with
    | Error _ ->
      t.refused <- t.refused + 1;
      event "refuse" (string_of_int slot);
      (* Offered load keeps pressing: retry the slot's next round. *)
      reopen slot round ~delay:(Time.ms 200)
    | Ok (session, decision) ->
      t.admitted <- t.admitted + 1;
      let id = string_of_int (Session.id session) in
      if decision = Mantts.Degraded then begin
        t.degraded <- t.degraded + 1;
        event "degrade" id
      end;
      event "open" id;
      let tolerant = acd.Acd.qos.Qos.loss_tolerance > 0.0 in
      Option.iter (fun st -> Steer.watch st session ~loss_tolerant:tolerant) steer;
      let live = Session.Dispatcher.session_count client_disp in
      if live > t.peak_live then t.peak_live <- live;
      let bytes = max 64 ((payload_bytes / 2) + Rng.int slot_rng payload_bytes) in
      Hashtbl.replace t.ledger.pending (Session.id session)
        { requested = bytes; tolerant; got = 0 };
      Session.send session ~bytes ();
      Engine.schedule_anon engine ~at:(Time.add (Engine.now engine) lifetime)
        (fun () ->
          event "close" id;
          Mantts.close_session mantts session;
          reopen slot round ~delay:(Time.ms 100)));
    after_open slot round
  in
  for slot = 0 to slots - 1 do
    attempt slot 0 ~at:(open_at slot)
  done

(* Loss-tolerant classes use whatever arrived; a fully-reliable
   application's transfer is only useful if all of it arrived (a file
   with holes is not partial goodput, it is waste).  Every contract
   still pending fell short of its request. *)
let goodput t =
  Hashtbl.fold
    (fun _ c acc -> if c.tolerant then acc + c.got else acc)
    t.ledger.pending t.ledger.settled

(* Generous ceiling; the run quiesces long before it in practice. *)
let horizon ~open_window ~churn_rounds =
  Time.add open_window (Time.sec (3.0 *. float_of_int (churn_rounds + 1)))
