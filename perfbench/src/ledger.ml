(* The per-layer ledger: every per-layer metric, computed from the traced
   passes' spans plus the counters each workload reads at layer
   boundaries.  Every workload reports every metric (zero where a layer
   does not run), so the ledgers of different workloads line up. *)

open Common

type counters = {
  requests : int;  (** scenario requests decided in the traced passes *)
  floods : int;
  flood_messages : int;
  jobs : int;  (** domains the traced passes kept busy *)
  wal_bytes : float;
  checkpoint_bytes : float;
  replayed : int;
  affected : int;
  recovered : int;
  retransmits : int;
  reprotect_queued : int;
  reprotect_drained : int;
  reprotect_attempts : int;
  engine_events : int;
}

let zero =
  {
    requests = 0;
    floods = 0;
    flood_messages = 0;
    jobs = 1;
    wal_bytes = 0.0;
    checkpoint_bytes = 0.0;
    replayed = 0;
    affected = 0;
    recovered = 0;
    retransmits = 0;
    reprotect_queued = 0;
    reprotect_drained = 0;
    reprotect_attempts = 0;
    engine_events = 0;
  }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per x n = if n = 0 then 0.0 else x /. float_of_int n
let kib words = words *. 8.0 /. 1024.0

(** [recover_ms] and [failover_ms] are the untraced samples behind the
    two workload-specific end-to-end figures, reported here as medians.
    [replica_sync_ms] is the untraced-minus-traced wall time per what-if
    round: the replica sync [Serve.run] does and the traced loop leaves out.
    [s] gives the statistics of one traced pass of [pass_wall] seconds, bracketed by
    [gc0]/[gc1]; [traced_wall] and [untraced_wall] are the median per-pass
    wall times with tracing on and off. *)
let metrics ?(recover_ms = []) ?(failover_ms = []) ?(replica_sync_ms = (0.0, 0))
    (s : Tracer.layer -> Tracer.stats)
    c ~pass_wall ~traced_wall ~untraced_wall ~gc0 ~gc1 =
  let open Tracer in
  let count name st = metric name "count" (float_of_int st.calls) ~samples:st.calls in
  let self name st = metric name "s" st.self_s ~samples:st.calls in
  let q name unit scale st p =
    metric name unit (scale *. quantile st.durations p) ~samples:st.calls
  in
  let what_if = s What_if and probe = s Probe and audit = s Audit in
  let routing = s Routing and batch = s Batch in
  let admit = s Admit and release = s Release in
  let fe = s Failure_eval and flood = s Flood in
  let root = s Root in
  let append = s Append and ckpt = s Checkpoint and recover = s Recover in
  let recovery = s Recovery and drain = s Drain and engine = s Engine in
  let restore = s Restore in
  let capacity_s =
    (* Sweep tasks run under [Pool]: its domains are the capacity, and the
       time no task occupied them is the pool's idle time. *)
    if c.jobs > 1 then float_of_int c.jobs *. pass_wall else root.total_s
  in
  let pool_idle = if c.jobs > 1 then capacity_s -. root.total_s else 0.0 in
  let words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words
    +. (gc1.Gc.major_words -. gc0.Gc.major_words)
    -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
  in
  [
    count "service.what_if_calls" what_if;
    self "service.what_if_self_s" what_if;
    q "service.what_if_p50_us" "us" 1e6 what_if 0.5;
    q "service.what_if_p99_us" "us" 1e6 what_if 0.99;
    metric "service.what_if_alloc_kb" "KiB" (per (kib what_if.words) what_if.calls)
      ~samples:what_if.calls;
    metric "service.replica_sync_ms_per_round" "ms" (fst replica_sync_ms)
      ~samples:(snd replica_sync_ms);
    count "service.probe_calls" probe;
    self "service.probe_self_s" probe;
    count "net_state.audit_calls" audit;
    self "net_state.audit_self_s" audit;
    metric "net_state.audit_ms_per_call" "ms" (per (1e3 *. audit.self_s) audit.calls)
      ~samples:audit.calls;
    count "routing.calls" routing;
    self "routing.self_s" routing;
    q "routing.p50_us" "us" 1e6 routing 0.5;
    metric "routing.reject_ratio" "ratio" (ratio routing.tagged routing.calls)
      ~samples:routing.calls;
    count "batch.calls" batch;
    metric "batch.us_per_req" "us"
      (per (1e6 *. batch.total_s) (if batch.calls = 0 then 0 else c.requests))
      ~samples:batch.calls;
    metric "manager.admit_self_s" "s" (admit.self_s +. batch.self_s)
      ~samples:(admit.calls + batch.calls);
    self "manager.release_self_s" release;
    metric "manager.alloc_kb_per_req" "KiB"
      (per (kib (admit.words +. batch.words)) c.requests)
      ~samples:c.requests;
    count "failure_eval.calls" fe;
    self "failure_eval.self_s" fe;
    metric "failure_eval.ms_per_snapshot" "ms" (per (1e3 *. fe.self_s) fe.calls)
      ~samples:fe.calls;
    count "bounded_flood.calls" flood;
    self "bounded_flood.self_s" flood;
    metric "bounded_flood.cdp_per_req" "count" (ratio c.flood_messages c.floods)
      ~samples:c.floods;
    metric "bounded_flood.accept_ratio" "ratio"
      (if flood.calls = 0 then 0.0 else 1.0 -. ratio flood.tagged flood.calls)
      ~samples:flood.calls;
    metric "pool.busy_ratio" "ratio"
      (if c.jobs > 1 && capacity_s > 0.0 then root.total_s /. capacity_s else 0.0)
      ~samples:root.calls;
    metric "pool.idle_s" "s" pool_idle ~samples:c.jobs;
    metric "pool.longest_task_s" "s"
      (if c.jobs > 1 then quantile root.durations 1.0 else 0.0)
      ~samples:root.calls;
    count "persist.append_calls" append;
    self "persist.append_self_s" append;
    metric "persist.append_us" "us" (per (1e6 *. append.total_s) append.calls)
      ~samples:append.calls;
    metric "persist.bytes_per_append" "B" (per c.wal_bytes append.calls)
      ~samples:append.calls;
    count "persist.checkpoint_calls" ckpt;
    self "persist.checkpoint_self_s" ckpt;
    metric "persist.checkpoint_ms" "ms" (per (1e3 *. ckpt.total_s) ckpt.calls)
      ~samples:ckpt.calls;
    metric "persist.checkpoint_kb" "KiB" (per (c.checkpoint_bytes /. 1024.0) ckpt.calls)
      ~samples:ckpt.calls;
    count "persist.recover_calls" recover;
    self "persist.recover_self_s" recover;
    metric "persist.replayed_per_recover" "count" (ratio c.replayed recover.calls)
      ~samples:recover.calls;
    count "recovery.calls" recovery;
    self "recovery.self_s" recovery;
    q "recovery.p95_ms" "ms" 1e3 recovery 0.95;
    metric "recovery.affected_per_call" "count" (ratio c.affected recovery.calls)
      ~samples:recovery.calls;
    metric "recovery.recovered_ratio" "ratio" (ratio c.recovered c.affected)
      ~samples:c.affected;
    metric "recovery.retransmits" "count" (float_of_int c.retransmits)
      ~samples:recovery.calls;
    metric "manager.reprotect_drain_s" "s" drain.total_s ~samples:drain.calls;
    metric "manager.reprotect_attempts" "count"
      (float_of_int c.reprotect_attempts) ~samples:drain.calls;
    metric "manager.reprotect_drained_ratio" "ratio"
      (ratio c.reprotect_drained c.reprotect_queued)
      ~samples:c.reprotect_queued;
    metric "engine.events" "count" (float_of_int c.engine_events)
      ~samples:engine.calls;
    self "engine.self_s" engine;
    self "net_state.restore_self_s" restore;
    metric "recover_ms" "ms" (Tracer.median recover_ms)
      ~samples:(List.length recover_ms);
    metric "failover_p50_ms" "ms" (Tracer.median failover_ms)
      ~samples:(List.length failover_ms);
    metric "gc.alloc_kb_per_req" "KiB" (per (kib words) c.requests) ~samples:c.requests;
    metric "gc.minor_collections" "count"
      (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    metric "gc.major_collections" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    metric "unattributed_ratio" "ratio"
      (if capacity_s > 0.0 then root.self_s /. capacity_s else 0.0);
    metric "trace_overhead_ratio" "ratio"
      (if untraced_wall > 0.0 then (traced_wall /. untraced_wall) -. 1.0 else 0.0);
  ]
