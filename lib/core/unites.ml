open Adaptive_sim

type metric =
  | Throughput
  | Rtt
  | Setup_latency
  | Delivery_latency
  | Jitter
  | Segments_sent
  | Segments_delivered
  | Bytes_delivered
  | Retransmissions
  | Timeouts
  | Dup_segments
  | Corrupt_detected
  | Corrupt_delivered
  | Late_discards
  | Losses_unrecovered
  | Fec_parity_sent
  | Fec_recovered
  | Acks_sent
  | Nacks_sent
  | Control_pdus
  | Reconfigurations
  | Window_size
  | Host_cpu
  | Sched_events_fired
  | Sched_timers_rearmed
  | Sched_cancelled_ratio
  | Sched_wheel_hit_rate
  | Faults_injected
  | Fault_recovery
  | Sessions_open
  | Sessions_refused
  | Sessions_degraded
  | Demux_probes
  | Table_occupancy
  | Timewait_drops
  | Wire_encodes
  | Wire_decodes
  | Wire_rejects
  | Wire_fused_sums
  | Wire_pool_reuse
  | Steer_swaps
  | Steer_blocked
  | Steer_time_in_config

type kind = Blackbox | Whitebox

let metric_kind = function
  | Throughput | Rtt -> Blackbox
  | Setup_latency | Delivery_latency | Jitter | Segments_sent | Segments_delivered
  | Bytes_delivered | Retransmissions | Timeouts | Dup_segments | Corrupt_detected
  | Corrupt_delivered | Late_discards | Losses_unrecovered | Fec_parity_sent
  | Fec_recovered | Acks_sent | Nacks_sent | Control_pdus | Reconfigurations
  | Window_size | Host_cpu | Sched_events_fired | Sched_timers_rearmed
  | Sched_cancelled_ratio | Sched_wheel_hit_rate | Faults_injected
  | Fault_recovery | Sessions_open | Sessions_refused | Sessions_degraded
  | Demux_probes | Table_occupancy | Timewait_drops | Wire_encodes
  | Wire_decodes | Wire_rejects | Wire_fused_sums | Wire_pool_reuse
  | Steer_swaps | Steer_blocked | Steer_time_in_config -> Whitebox

let metric_name = function
  | Throughput -> "throughput_bps"
  | Rtt -> "rtt_s"
  | Setup_latency -> "setup_latency_s"
  | Delivery_latency -> "delivery_latency_s"
  | Jitter -> "jitter_s"
  | Segments_sent -> "segments_sent"
  | Segments_delivered -> "segments_delivered"
  | Bytes_delivered -> "bytes_delivered"
  | Retransmissions -> "retransmissions"
  | Timeouts -> "timeouts"
  | Dup_segments -> "dup_segments"
  | Corrupt_detected -> "corrupt_detected"
  | Corrupt_delivered -> "corrupt_delivered"
  | Late_discards -> "late_discards"
  | Losses_unrecovered -> "losses_unrecovered"
  | Fec_parity_sent -> "fec_parity_sent"
  | Fec_recovered -> "fec_recovered"
  | Acks_sent -> "acks_sent"
  | Nacks_sent -> "nacks_sent"
  | Control_pdus -> "control_pdus"
  | Reconfigurations -> "reconfigurations"
  | Window_size -> "window_size"
  | Host_cpu -> "host_cpu_s"
  | Sched_events_fired -> "sched_events_fired"
  | Sched_timers_rearmed -> "sched_timers_rearmed"
  | Sched_cancelled_ratio -> "sched_cancelled_ratio"
  | Sched_wheel_hit_rate -> "sched_wheel_hit_rate"
  | Faults_injected -> "faults_injected"
  | Fault_recovery -> "fault_recovery_s"
  | Sessions_open -> "sessions_open"
  | Sessions_refused -> "sessions_refused"
  | Sessions_degraded -> "sessions_degraded"
  | Demux_probes -> "demux_probes"
  | Table_occupancy -> "table_occupancy"
  | Timewait_drops -> "timewait_drops"
  | Wire_encodes -> "wire_encodes"
  | Wire_decodes -> "wire_decodes"
  | Wire_rejects -> "wire_rejects"
  | Wire_fused_sums -> "wire_fused_sums"
  | Wire_pool_reuse -> "wire_pool_reuse"
  | Steer_swaps -> "steer_swaps"
  | Steer_blocked -> "steer_blocked"
  | Steer_time_in_config -> "steer_time_in_config_s"

let all_metrics =
  [
    Throughput;
    Rtt;
    Setup_latency;
    Delivery_latency;
    Jitter;
    Segments_sent;
    Segments_delivered;
    Bytes_delivered;
    Retransmissions;
    Timeouts;
    Dup_segments;
    Corrupt_detected;
    Corrupt_delivered;
    Late_discards;
    Losses_unrecovered;
    Fec_parity_sent;
    Fec_recovered;
    Acks_sent;
    Nacks_sent;
    Control_pdus;
    Reconfigurations;
    Window_size;
    Host_cpu;
    Sched_events_fired;
    Sched_timers_rearmed;
    Sched_cancelled_ratio;
    Sched_wheel_hit_rate;
    Faults_injected;
    Fault_recovery;
    Sessions_open;
    Sessions_refused;
    Sessions_degraded;
    Demux_probes;
    Table_occupancy;
    Timewait_drops;
    Wire_encodes;
    Wire_decodes;
    Wire_rejects;
    Wire_fused_sums;
    Wire_pool_reuse;
    Steer_swaps;
    Steer_blocked;
    Steer_time_in_config;
  ]

(* Dense metric indexing: the hot path keys accumulators by the packed
   int [(session lsl 6) lor metric_index] instead of an [(int * metric)]
   tuple, so a lookup allocates nothing.  The index order must match
   {!all_metrics}. *)
let metric_index = function
  | Throughput -> 0
  | Rtt -> 1
  | Setup_latency -> 2
  | Delivery_latency -> 3
  | Jitter -> 4
  | Segments_sent -> 5
  | Segments_delivered -> 6
  | Bytes_delivered -> 7
  | Retransmissions -> 8
  | Timeouts -> 9
  | Dup_segments -> 10
  | Corrupt_detected -> 11
  | Corrupt_delivered -> 12
  | Late_discards -> 13
  | Losses_unrecovered -> 14
  | Fec_parity_sent -> 15
  | Fec_recovered -> 16
  | Acks_sent -> 17
  | Nacks_sent -> 18
  | Control_pdus -> 19
  | Reconfigurations -> 20
  | Window_size -> 21
  | Host_cpu -> 22
  | Sched_events_fired -> 23
  | Sched_timers_rearmed -> 24
  | Sched_cancelled_ratio -> 25
  | Sched_wheel_hit_rate -> 26
  | Faults_injected -> 27
  | Fault_recovery -> 28
  | Sessions_open -> 29
  | Sessions_refused -> 30
  | Sessions_degraded -> 31
  | Demux_probes -> 32
  | Table_occupancy -> 33
  | Timewait_drops -> 34
  | Wire_encodes -> 35
  | Wire_decodes -> 36
  | Wire_rejects -> 37
  | Wire_fused_sums -> 38
  | Wire_pool_reuse -> 39
  | Steer_swaps -> 40
  | Steer_blocked -> 41
  | Steer_time_in_config -> 42

let key session mi = (session lsl 6) lor mi
let key_metric k = k land 63

let is_whitebox =
  Array.of_list
    (List.map (fun m -> metric_kind m = Whitebox) all_metrics)

(* Current-bucket accumulation cell.  The running sum lives in a
   one-element float array (unboxed store); completed buckets spill into
   [spill] once, when simulated time crosses into the next bucket. *)
type bcell = {
  mutable bslot : int;
  bcur : float array;
  mutable spill : (int, float) Hashtbl.t option;
      (* lazily created: a cell only spills when the session records in
         more than one bucket, which short-lived sessions never do *)
}

(* Append-only int vector: one word per element. *)
type ivec = { mutable items : int array; mutable len : int }

let ivec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let a = Array.make (max 8 (2 * v.len)) 0 in
    Array.blit v.items 0 a 0 v.len;
    v.items <- a
  end;
  Array.unsafe_set v.items v.len x;
  v.len <- v.len + 1

type t = {
  engine : Engine.t;
  mutable whitebox : bool;
  bucket : Time.t;
  res_size : int; (* per-accumulator reservoir bound *)
  estimator : Stats.estimator; (* quantile sketch for every accumulator *)
  table : (int, Stats.t) Hashtbl.t; (* packed (session, metric) key *)
  buckets : (int, bcell) Hashtbl.t; (* packed (session, metric) key *)
  cells : ivec option array;
      (* per metric index: that metric's [table] keys, built by its first
         [fold_cells], so a run that never folds pays nothing *)
  names : (int, string) Hashtbl.t;
  mutable reg_log : (int * ivec) option;
      (* once [registrations] is first called: the registration count
         then, and the [names] keys registered since, in order *)
  tmc : (int, int) Hashtbl.t; (* per-session whitebox selection bitmask *)
  mutable session_cap : int; (* individually tracked real sessions *)
  mutable tracked : int;
  routed : (int, unit) Hashtbl.t; (* real sessions admitted to tracking *)
  mutable whitebox_count : int;
  (* last scheduler counter values folded into the repository, so each
     [sample_scheduler] observes the delta since the previous sample *)
  mutable sched_fired_seen : int;
  mutable sched_rearmed_seen : int;
  mutable rendered_at : Engine.counters option;
      (* the engine's counters when a render last sampled the scheduler,
         until an explicit [sample_scheduler] *)
  mutable trace : Trace.t option;
}

(* Scheduler observations live under a reserved pseudo-session: real
   connection ids are handed out starting from 1. *)
let scheduler_session = 0

(* Fault-injection observations likewise live under a reserved
   pseudo-session: faults belong to the run, not to any one connection. *)
let chaos_session = -1

(* Many-session scale observations (admission control, demux probes,
   table occupancy) likewise describe the host's dispatcher as a whole. *)
let swarm_session = -2

(* Wire-true data-path observations (encode/decode/reject counts, fused
   checksum passes, pool reuse) describe the codec and buffer pool of a
   whole stack, not any one connection. *)
let wire_session = -3

(* Closed-loop steering observations (swap counts, cooldown blocks,
   time-in-config) describe the STEER policy engine of a whole stack. *)
let steer_session = -4

(* When a session cap is set, real sessions past the cap share this
   pseudo-session: totals stay exact while per-session state stays
   bounded at GIGASWARM scale. *)
let overflow_session = -5

let create ?(whitebox = true) ?(bucket = Time.sec 1.0) ?(reservoir = 8192)
    ?(estimator = Stats.Reservoir) ?(session_cap = max_int) engine =
  {
    engine;
    whitebox;
    bucket = Time.max 1 bucket;
    res_size = max 8 reservoir;
    estimator;
    table = Hashtbl.create 64;
    buckets = Hashtbl.create 64;
    cells = Array.make (List.length all_metrics) None;
    names = Hashtbl.create 16;
    reg_log = None;
    tmc = Hashtbl.create 16;
    session_cap = max 1 session_cap;
    tracked = 0;
    routed = Hashtbl.create 16;
    whitebox_count = 0;
    sched_fired_seen = 0;
    sched_rearmed_seen = 0;
    rendered_at = None;
    trace = None;
  }

let set_session_cap t n = t.session_cap <- max 1 n

let add_name t id name =
  Hashtbl.add t.names id name;
  match t.reg_log with Some (_, log) -> push log id | None -> ()

(* Route a real session id to its tracking bucket.  The first
   [session_cap] distinct real sessions (in deterministic first-contact
   order) are tracked individually; later ones fold into
   [overflow_session].  Only admitted sessions are stored, so the
   routing table itself is bounded by the cap. *)
let route t session =
  if session <= 0 || t.session_cap = max_int then session
  else if Hashtbl.mem t.routed session then session
  else if t.tracked < t.session_cap then begin
    t.tracked <- t.tracked + 1;
    Hashtbl.add t.routed session ();
    session
  end
  else begin
    if not (Hashtbl.mem t.names overflow_session) then
      add_name t overflow_session "overflow";
    overflow_session
  end

let whitebox_enabled t = t.whitebox
let set_whitebox t v = t.whitebox <- v
let register_session t ~id ~name =
  (* First registration wins: the initiator names the session; the
     responder's acceptance label is secondary.  Overflow-routed
     sessions are not named individually, so the name table stays
     bounded under a session cap. *)
  let id = route t id in
  if id <> overflow_session && not (Hashtbl.mem t.names id) then
    add_name t id name

(* Names are never removed, so their count is the registration count. *)
let registrations t =
  let n = Hashtbl.length t.names in
  if t.reg_log = None then t.reg_log <- Some (n, ivec ());
  n

let registered_since t n ~session =
  match t.reg_log with
  | Some (base, log) when n >= base ->
    let rec scan i = i < log.len && (log.items.(i) = session || scan (i + 1)) in
    scan (n - base)
  | _ when n = 0 -> Hashtbl.mem t.names session
  | _ -> invalid_arg "Unites.registered_since: cursor not from registrations"

let accumulator t k =
  match Hashtbl.find t.table k with
  | s -> s
  | exception Not_found ->
    let s = Stats.create ~estimator:t.estimator ~reservoir:t.res_size () in
    Hashtbl.add t.table k s;
    (match t.cells.(key_metric k) with Some v -> push v k | None -> ());
    s

let record_bucket t k v =
  let slot = Engine.now t.engine / t.bucket in
  match Hashtbl.find t.buckets k with
  | c ->
    if c.bslot = slot then c.bcur.(0) <- c.bcur.(0) +. v
    else begin
      (* Simulated time is monotone, so each bucket spills exactly once;
         the defensive merge keeps re-entry harmless regardless. *)
      let h =
        match c.spill with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          c.spill <- Some h;
          h
      in
      let prev =
        match Hashtbl.find h c.bslot with
        | p -> p
        | exception Not_found -> 0.0
      in
      Hashtbl.replace h c.bslot (prev +. c.bcur.(0));
      c.bslot <- slot;
      c.bcur.(0) <- v
    end
  | exception Not_found ->
    Hashtbl.add t.buckets k { bslot = slot; bcur = [| v |]; spill = None }

let mask_of metrics =
  List.fold_left (fun acc m -> acc lor (1 lsl metric_index m)) 0 metrics

let restrict_session t ~id metrics =
  let id = route t id in
  if id = overflow_session then begin
    (* Overflowed sessions share one restriction mask: the union of
       their TMCs.  Deterministic (first-contact order) and bounded. *)
    match mask_of metrics with
    | 0 -> ()
    | m ->
      let cur = match Hashtbl.find t.tmc id with c -> c | exception Not_found -> 0 in
      Hashtbl.replace t.tmc id (cur lor m)
  end
  else if metrics = [] then Hashtbl.remove t.tmc id
  else Hashtbl.replace t.tmc id (mask_of metrics)

let wanted t session mi =
  match Hashtbl.find t.tmc session with
  | mask -> mask land (1 lsl mi) <> 0
  | exception Not_found -> true

let record t session mi v =
  let k = key session mi in
  Stats.add (accumulator t k) v;
  record_bucket t k v

let observe t ~session m v =
  let mi = metric_index m in
  if Array.unsafe_get is_whitebox mi then begin
    if t.whitebox then begin
      let session = route t session in
      if wanted t session mi then begin
        t.whitebox_count <- t.whitebox_count + 1;
        record t session mi v
      end
    end
  end
  else record t (route t session) mi v

let count t ~session m = observe t ~session m 1.0

let stats t ~session m =
  Option.map Stats.summarize
    (Hashtbl.find_opt t.table (key session (metric_index m)))

let total t ~session m =
  match Hashtbl.find t.table (key session (metric_index m)) with
  | s -> Stats.total s
  | exception Not_found -> 0.0

let mean t ~session m =
  match Hashtbl.find t.table (key session (metric_index m)) with
  | s -> Stats.mean s
  | exception Not_found -> nan

let metric_cells t mi =
  match t.cells.(mi) with
  | Some v -> v
  | None ->
    let v = ivec () in
    Hashtbl.iter (fun k _ -> if key_metric k = mi then push v k) t.table;
    t.cells.(mi) <- Some v;
    v

(* Cells are never removed, so the metric's index holds every cell a
   registered session has for it; an absent cell reads 0. *)
let fold_cells t m f acc =
  let v = metric_cells t (metric_index m) in
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    let cell = Array.unsafe_get v.items i in
    let session = cell asr 6 in
    if session >= 1 && Hashtbl.mem t.names session then
      acc := f !acc ~cell ~session (Stats.total (Hashtbl.find t.table cell))
  done;
  !acc

let aggregate_acc t m =
  let mi = metric_index m in
  Hashtbl.fold
    (fun k s acc ->
      if key_metric k = mi then
        match acc with None -> Some s | Some a -> Some (Stats.merge a s)
      else acc)
    t.table None

let aggregate t m = Option.map Stats.summarize (aggregate_acc t m)

let aggregate_total t m =
  match aggregate_acc t m with Some s -> Stats.total s | None -> 0.0

let sessions t =
  Hashtbl.fold (fun id name acc -> (id, name) :: acc) t.names []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let whitebox_samples t = t.whitebox_count
let attach_trace t trace = t.trace <- Some trace
let attached_trace t = t.trace

let sample t =
  register_session t ~id:scheduler_session ~name:"scheduler";
  let c = Engine.counters t.engine in
  let d_fired = c.Engine.events_fired - t.sched_fired_seen in
  let d_rearmed = c.Engine.timers_rearmed - t.sched_rearmed_seen in
  t.sched_fired_seen <- c.Engine.events_fired;
  t.sched_rearmed_seen <- c.Engine.timers_rearmed;
  if d_fired > 0 then
    observe t ~session:scheduler_session Sched_events_fired (float_of_int d_fired);
  if d_rearmed > 0 then
    observe t ~session:scheduler_session Sched_timers_rearmed (float_of_int d_rearmed);
  observe t ~session:scheduler_session Sched_cancelled_ratio
    (Engine.cancelled_ratio t.engine);
  observe t ~session:scheduler_session Sched_wheel_hit_rate
    (Engine.wheel_hit_rate t.engine)

let sample_scheduler t =
  if t.whitebox then begin
    sample t;
    t.rendered_at <- None
  end

(* A render folds the scheduler in unless the last sample was a render's
   and no engine counter has moved since: re-sampling an unchanged engine
   would add one more observation of the same ratios to the repository
   it presents. *)
let sample_for_render t =
  if t.whitebox then begin
    let c = Engine.counters t.engine in
    if t.rendered_at <> Some c then begin
      sample t;
      t.rendered_at <- Some c
    end
  end

let cell_fold f acc c =
  let acc =
    match c.spill with
    | None -> acc
    | Some h -> Hashtbl.fold (fun slot v acc -> f acc slot v) h acc
  in
  f acc c.bslot c.bcur.(0)

let series t ~session m =
  match Hashtbl.find_opt t.buckets (key session (metric_index m)) with
  | None -> []
  | Some c ->
    cell_fold (fun acc slot v -> (slot * t.bucket, v) :: acc) [] c
    |> List.sort compare

let aggregate_series t m =
  let mi = metric_index m in
  let merged = Hashtbl.create 32 in
  let add _ slot v =
    Hashtbl.replace merged slot
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt merged slot))
  in
  Hashtbl.iter
    (fun k c -> if key_metric k = mi then cell_fold add () c)
    t.buckets;
  Hashtbl.fold (fun slot v acc -> (slot * t.bucket, v) :: acc) merged []
  |> List.sort compare

(* Per metric index: everything a metric line holds before its summary. *)
let line_prefix =
  Array.of_list
    (List.map
       (fun m ->
         Printf.sprintf "  %-20s [%s] " (metric_name m)
           (match metric_kind m with Blackbox -> "bb" | Whitebox -> "wb"))
       all_metrics)

let sorted_keys h =
  let a = Array.make (Hashtbl.length h) 0 and i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      a.(!i) <- k;
      incr i)
    h;
  Array.sort Int.compare a;
  a

(* The report's lines, each ended by [eol b].  Registered sessions come in
   id order, each with its metrics in {!all_metrics} order: packed keys
   sort by session, then metric index, so one pass over the sorted cells
   yields them, skipping the cells of unregistered sessions. *)
let render_lines t b eol =
  (* Fold the engine's current scheduler counters in so the report always
     shows scheduler overhead next to the transport metrics. *)
  sample_for_render t;
  Buffer.add_string b "UNITES metric repository (t=";
  Buffer.add_string b (Time.to_string (Engine.now t.engine));
  Buffer.add_string b (if t.whitebox then ", whitebox=true)" else ", whitebox=false)");
  eol b;
  let cells = sorted_keys t.table in
  let j = ref 0 in
  Array.iter
    (fun id ->
      Buffer.add_string b "session ";
      Buffer.add_string b (Int.to_string id);
      Buffer.add_string b " (";
      Buffer.add_string b (Hashtbl.find t.names id);
      Buffer.add_string b "):";
      eol b;
      while !j < Array.length cells && cells.(!j) asr 6 < id do
        incr j
      done;
      while !j < Array.length cells && cells.(!j) asr 6 = id do
        let k = cells.(!j) in
        Buffer.add_string b line_prefix.(key_metric k);
        Stats.add_summary b (Stats.summarize (Hashtbl.find t.table k));
        eol b;
        incr j
      done)
    (sorted_keys t.names);
  match t.trace with
  | None -> ()
  | Some trace ->
    Buffer.add_string b "trace (dropped log entries: ";
    Buffer.add_string b (Int.to_string (Trace.dropped trace));
    Buffer.add_string b "):";
    eol b;
    List.iter
      (fun (name, n) ->
        Buffer.add_string b (Printf.sprintf "  %-28s %d" name n);
        eol b)
      (Trace.counters trace)

let render t =
  let b = Buffer.create 4096 in
  render_lines t b (fun b -> Buffer.add_char b '\n');
  Buffer.contents b

let report fmt t =
  let b = Buffer.create 128 in
  Format.pp_open_vbox fmt 0;
  render_lines t b (fun b ->
      Format.pp_print_string fmt (Buffer.contents b);
      Buffer.clear b;
      Format.pp_print_cut fmt ());
  Format.pp_close_box fmt ()
