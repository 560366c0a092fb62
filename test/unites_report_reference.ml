(* Reference model for the differential UNITES report property: the
   [Format] renderer that [Unites.report] was before the report was
   written straight into a buffer, with the format strings its summary
   and time printers used.  It reads the
   repository through the public interface, so it takes the engine as
   an argument.  {!Adaptive_core.Unites}'s [render] and [report] must
   agree with it byte for byte on a repository's first render. *)

open Adaptive_sim
open Adaptive_core

let pp_time fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (Time.to_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (Time.to_ms t)
  else Format.fprintf fmt "%.3fs" (Time.to_sec t)

let pp_summary fmt (s : Stats.summary) =
  Format.fprintf fmt
    "n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g" s.n
    s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max

let report fmt engine t =
  (* Fold the engine's current scheduler counters in so the report always
     shows scheduler overhead next to the transport metrics. *)
  Unites.sample_scheduler t;
  Format.fprintf fmt "@[<v>UNITES metric repository (t=%a, whitebox=%b)@,"
    pp_time (Engine.now engine) (Unites.whitebox_enabled t);
  List.iter
    (fun (id, name) ->
      Format.fprintf fmt "session %d (%s):@," id name;
      List.iter
        (fun m ->
          match Unites.stats t ~session:id m with
          | None -> ()
          | Some s ->
            Format.fprintf fmt "  %-20s [%s] %a@," (Unites.metric_name m)
              (match Unites.metric_kind m with
              | Unites.Blackbox -> "bb"
              | Unites.Whitebox -> "wb")
              pp_summary s)
        Unites.all_metrics)
    (Unites.sessions t);
  (match Unites.attached_trace t with
  | None -> ()
  | Some trace ->
    Format.fprintf fmt "trace (dropped log entries: %d):@," (Trace.dropped trace);
    List.iter
      (fun (name, n) -> Format.fprintf fmt "  %-28s %d@," name n)
      (Trace.counters trace));
  Format.fprintf fmt "@]"
