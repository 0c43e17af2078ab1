(* The two serve workloads, both D-LSR at E = 4, UT, lambda = 0.4 on one
   domain, driven through [Serve.run]:

   - serve-whatif: [Serve.default], i.e. [drtp_sim serve --quick] — batches
     of 32 with 8 what-if admissions every 4 batches, a fail-edge probe
     every 8 and a full audit every 16.  What-if speculation dominates.
   - serve-durable: what-ifs, probes and periodic audits off, WAL on, a
     checkpoint once 500 WAL records accumulate and a crash plus recovery
     every 200 batches, over a 6-hour scenario (twice the paper horizon) cut
     at its horizon (so the run ends loaded, not drained).  Batched admission, WAL
     appends, checkpoints and WAL replay share the time.  Afterwards the
     checkpoint and WAL tail the run left are recovered offline, repeatedly,
     into fresh managers: that is [recover_ms]. *)

open Common
module Serve = Dr_service.Serve
module Service = Dr_service.Service
module Batch = Dr_service.Batch
module Persist = Dr_persist.Persist
module Wal = Dr_persist.Wal
module State_digest = Dr_persist.State_digest
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Scenario = Dr_sim.Scenario
module Graph = Dr_topo.Graph
module Sm = Dr_rng.Splitmix64

let avg_degree = 4.0
let lambda = 0.4

type inputs = {
  graph : Graph.t;
  scenario : Scenario.t;
  route : Routing.route_fn;
  capacity : int;
}

let make_inputs (cfg : Config.t) ~durable =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario =
    if not durable then Config.make_scenario cfg Config.UT ~lambda
    else
      let horizon = 4.5 *. cfg.Config.horizon in
      let full = Config.make_scenario { cfg with Config.horizon } Config.UT ~lambda in
      Scenario.of_items
        (List.filter
           (fun it -> it.Scenario.time <= horizon)
           (Array.to_list (Scenario.items full)))
  in
  let route = Routing.link_state_route_fn Routing.Dlsr ~with_backup:true in
  { graph; scenario; route; capacity = cfg.Config.capacity }

let make_manager i route =
  Manager.create ~graph:i.graph ~capacity:i.capacity
    ~spare_policy:Net_state.Multiplexed ~route

let whatif_config (o : opts) =
  { Serve.default with Serve.sv_seed = o.seed; sv_bw = Config.default.Config.bw_req }

let durable_config (o : opts) ~wal =
  {
    Serve.default with
    Serve.sv_seed = o.seed;
    sv_bw = Config.default.Config.bw_req;
    sv_what_if_every = 0;
    sv_probe_every = 0;
    sv_check_every = 0;
    sv_wal = Some wal;
    sv_checkpoint_every = (if o.size = Tiny then 100 else 500);
    sv_crash_every = (if o.size = Tiny then 20 else 200);
  }

(* The deterministic half of a report, for cross-pass comparison. *)
let counts (r : Serve.report) =
  Printf.sprintf
    "requests=%d accepted=%d no-primary=%d no-backup=%d releases=%d batches=%d \
     what-ifs=%d what-if-accepted=%d probes=%d probe-affected=%d checks=%d \
     check-failures=%d final-active=%d crashes=%d replayed=%d wal-records=%d \
     checkpoints=%d digest=%s"
    r.rp_requests r.rp_accepted r.rp_rejected_no_primary r.rp_rejected_no_backup
    r.rp_releases r.rp_batches r.rp_what_ifs r.rp_what_if_accepted
    r.rp_fail_probes r.rp_probe_affected r.rp_invariant_checks
    r.rp_invariant_failures r.rp_final_active r.rp_crashes r.rp_replayed
    r.rp_wal_records r.rp_checkpoints r.rp_digest

let file_size path = try float_of_int (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0.0

(* ---- the traced loop: [Serve.run]'s loop with spans ----------------------

   Same public calls in the same order, for the configurations above (no
   reordering, queue bound, deadline or overload bursts).  One difference:
   a what-if runs [Service.what_if_admit] on the truth service directly,
   which gives the same verdict as [Serve.run]'s replica evaluation, but
   without [Serve.run]'s per-round truth snapshot and replica rollback,
   which this benchmark may not call. *)

type traced = {
  report : Serve.report;
  wal_bytes : float;
  checkpoint_bytes : float;
}

let traced_serve (c : Serve.config) i =
  let route = Tracer.wrap_route Tracer.Routing i.route in
  let manager = ref (make_manager i route) in
  let service = ref (Service.create !manager) in
  let wal_bytes = ref 0.0 and checkpoint_bytes = ref 0.0 in
  let persist =
    Option.map
      (fun wal_path ->
        ref
          (Persist.create
             { (Persist.default_config ~wal_path) with wal_sample = c.Serve.sv_wal_sample }))
      c.Serve.sv_wal
  in
  let rng = Sm.create c.Serve.sv_seed in
  let nodes = Graph.node_count i.graph and edges = Graph.edge_count i.graph in
  let next_probe = ref 900_000_000 in
  let requests = ref 0 and accepted = ref 0 in
  let no_primary = ref 0 and no_backup = ref 0 in
  let releases = ref 0 and batches = ref 0 in
  let what_ifs = ref 0 and what_if_accepted = ref 0 in
  let fail_probes = ref 0 and probe_affected = ref 0 in
  let inv_checks = ref 0 and inv_failures = ref 0 in
  let crashes = ref 0 and replayed = ref 0 in
  let wal_records = ref 0 and ckpts = ref 0 in
  let sim_now = ref 0.0 in
  let what_ifs_on = c.sv_what_if_every > 0 && c.sv_what_if_burst > 0 in
  let what_if_round () =
    what_ifs := !what_ifs + c.sv_what_if_burst;
    let queries =
      Array.init c.sv_what_if_burst (fun _ ->
          let src = Sm.int rng nodes in
          let dst = (src + 1 + Sm.int rng (nodes - 1)) mod nodes in
          let conn = !next_probe in
          incr next_probe;
          (conn, src, dst))
    in
    Array.iter
      (fun (conn, src, dst) ->
        match
          Tracer.span Tracer.What_if (fun () ->
              Service.what_if_admit ~conn !service ~now:!sim_now ~src ~dst ~bw:c.sv_bw)
        with
        | Service.Accepted _ -> incr what_if_accepted
        | Service.Rejected _ -> ())
      queries
  in
  let probe_round () =
    incr fail_probes;
    let edge = Sm.int rng edges in
    let p = Tracer.span Tracer.Probe (fun () -> Service.what_if_fail_edge !service ~edge) in
    probe_affected := !probe_affected + p.Service.fp_affected
  in
  let audit ~caches =
    Tracer.span Tracer.Audit (fun () ->
        let st = Manager.state !manager in
        let a = Net_state.check_invariants st in
        let b = if caches then Net_state.check_routing_caches st else Ok () in
        (a, b))
  in
  let check_round () =
    incr inv_checks;
    let a, b = audit ~caches:true in
    if Result.is_error a then incr inv_failures;
    if Result.is_error b then incr inv_failures
  in
  let crash_round p =
    incr crashes;
    wal_records := !wal_records + Persist.appended !p;
    ckpts := !ckpts + Persist.checkpoints !p;
    Persist.close !p;
    Tracer.span Tracer.Recover (fun () ->
        let fresh = make_manager i route in
        match Persist.recover (Persist.config !p) ~manager:fresh with
        | Ok rv ->
            manager := fresh;
            service := Service.create fresh;
            replayed := !replayed + rv.Persist.rv_replayed;
            p := Persist.resume (Persist.config !p) rv
        | Error e -> failwith ("perfbench: recovery failed: " ^ e))
  in
  let after_batch () =
    if what_ifs_on && !batches mod c.sv_what_if_every = 0 then what_if_round ();
    if c.sv_probe_every > 0 && !batches mod c.sv_probe_every = 0 then probe_round ();
    if c.sv_check_every > 0 && !batches mod c.sv_check_every = 0 then check_round ();
    match persist with
    | Some p ->
        if
          c.sv_checkpoint_every > 0
          && Persist.wal_seq !p - Persist.checkpoint_seq !p >= c.sv_checkpoint_every
        then begin
          let cfg = Persist.config !p in
          wal_bytes := !wal_bytes +. file_size cfg.Persist.wal_path;
          Tracer.span Tracer.Checkpoint (fun () ->
              Persist.checkpoint !p ~manager:!manager ~time:!sim_now);
          checkpoint_bytes := !checkpoint_bytes +. file_size cfg.Persist.checkpoint_path
        end;
        if c.sv_crash_every > 0 && !batches mod c.sv_crash_every = 0 then crash_round p
    | None -> ()
  in
  let append time op =
    match persist with
    | Some p -> Tracer.span Tracer.Append (fun () -> Persist.append !p ~manager:!manager ~time op)
    | None -> ()
  in
  let buf = ref [] and nbuf = ref 0 in
  let flush () =
    if !nbuf > 0 then begin
      let reqs = Array.of_list (List.rev !buf) in
      buf := [];
      nbuf := 0;
      Array.iter
        (fun r ->
          append r.Batch.rq_time
            (Wal.Request
               {
                 conn = r.Batch.rq_conn;
                 src = r.Batch.rq_src;
                 dst = r.Batch.rq_dst;
                 bw = r.Batch.rq_bw;
                 duration = 0.0;
               }))
        reqs;
      let verdicts = Tracer.span Tracer.Batch (fun () -> Batch.admit !service reqs) in
      requests := !requests + Array.length reqs;
      Array.iter
        (function
          | Service.Accepted _ -> incr accepted
          | Service.Rejected Routing.No_primary -> incr no_primary
          | Service.Rejected _ -> incr no_backup)
        verdicts;
      incr batches;
      after_batch ()
    end
  in
  Scenario.iter i.scenario (fun item ->
      sim_now := item.Scenario.time;
      match item.Scenario.event with
      | Scenario.Request { conn; src; dst; bw; duration = _ } ->
          buf :=
            { Batch.rq_conn = conn; rq_time = item.Scenario.time; rq_src = src;
              rq_dst = dst; rq_bw = bw }
            :: !buf;
          incr nbuf;
          if !nbuf >= c.sv_batch then flush ()
      | Scenario.Release { conn } ->
          flush ();
          append item.Scenario.time (Wal.Release { conn });
          Tracer.span Tracer.Release (fun () ->
              Service.release_now !service ~now:item.Scenario.time ~conn);
          incr releases);
  flush ();
  incr inv_checks;
  if Result.is_error (fst (audit ~caches:false)) then incr inv_failures;
  (match persist with
  | Some p ->
      wal_records := !wal_records + Persist.appended !p;
      ckpts := !ckpts + Persist.checkpoints !p;
      Persist.close !p;
      wal_bytes := !wal_bytes +. file_size (Persist.config !p).Persist.wal_path
  | None -> ());
  let report =
    {
      Serve.rp_requests = !requests;
      rp_accepted = !accepted;
      rp_rejected_no_primary = !no_primary;
      rp_rejected_no_backup = !no_backup;
      rp_releases = !releases;
      rp_batches = !batches;
      rp_what_ifs = !what_ifs;
      rp_what_if_accepted = !what_if_accepted;
      rp_fail_probes = !fail_probes;
      rp_probe_affected = !probe_affected;
      rp_invariant_checks = !inv_checks;
      rp_invariant_failures = !inv_failures;
      rp_final_active = Net_state.active_count (Manager.state !manager);
      rp_lat_samples = 0;
      rp_shed_queue = 0;
      rp_shed_deadline = 0;
      rp_overload_injected = 0;
      rp_crashes = !crashes;
      rp_replayed = !replayed;
      rp_wal_records = !wal_records;
      rp_checkpoints = !ckpts;
      rp_digest = State_digest.manager_hex i.graph !manager;
      rp_violations = [];
      rp_elapsed_s = 0.0;
      rp_requests_per_sec = 0.0;
      rp_lat_p50_us = 0.0;
      rp_lat_p95_us = 0.0;
      rp_lat_p99_us = 0.0;
      rp_alloc_mb = 0.0;
      rp_alloc_kb_per_req = 0.0;
      rp_major_collections = 0;
    }
  in
  { report; wal_bytes = !wal_bytes; checkpoint_bytes = !checkpoint_bytes }

(* ---- the workloads ------------------------------------------------------- *)

type pass = {
  wall : float;
  report : Serve.report;
  spans : Tracer.buffer list;
  extra : traced option;
  gc : Gc.stat * Gc.stat;
}

let run_serve (o : opts) ~durable =
  let cfg = config o in
  let wal = Filename.concat o.work_dir "serve-durable.wal" in
  let sc = if durable then durable_config o ~wal else whatif_config o in
  (* Set-up times the inputs handed to [Serve.run] (graph, scenario, route
     function); the manager and WAL handle are built inside it. *)
  let setup _ = make_inputs cfg ~durable in
  let untraced inputs =
    let g0 = Gc.quick_stat () in
    let wall, report =
      timed (fun () ->
          Serve.run sc ~graph:inputs.graph ~capacity:inputs.capacity
            ~spare_policy:Net_state.Multiplexed ~route:inputs.route
            ~scenario:inputs.scenario)
    in
    { wall; report; spans = []; extra = None; gc = (g0, Gc.quick_stat ()) }
  in
  let traced inputs =
    let buf = Tracer.create_buffer () in
    let g0 = Gc.quick_stat () in
    let wall, t =
      timed (fun () ->
          Tracer.with_buffer buf (fun () ->
              Tracer.span Tracer.Root (fun () -> traced_serve sc inputs)))
    in
    { wall; report = t.report; spans = [ buf ]; extra = Some t; gc = (g0, Gc.quick_stat ()) }
  in
  let setup_s, setups, heap_mb, passes =
    time_boxed ~min_units:2 ~seconds:o.seconds ~setup (fun k inputs ->
        if o.trace && k mod 2 = 1 then traced inputs else untraced inputs)
  in
  let traced_passes, untraced_passes = List.partition (fun p -> p.extra <> None) passes in
  let reference = counts (List.hd untraced_passes).report in
  let reference = if o.tamper then tamper_string reference else reference in
  let last = Option.get (last_opt passes) in
  (* Offline recovery of what the last pass left on disk. *)
  let recover_times, recovered_digest =
    if not durable then ([], "")
    else begin
      let inputs = make_inputs cfg ~durable in
      let pcfg = Persist.default_config ~wal_path:wal in
      let digest = ref "" and times = ref [] in
      let t0 = Tracer.now_ns () in
      let k = ref 0 in
      while !k < 5 || (!k < 25 && Tracer.seconds_between t0 (Tracer.now_ns ()) < 1.5) do
        let fresh = make_manager inputs inputs.route in
        let dt, r = timed (fun () -> Persist.recover pcfg ~manager:fresh) in
        (match r with
        | Ok _ -> if !k = 0 then digest := State_digest.manager_hex inputs.graph fresh
        | Error e -> failwith ("perfbench: offline recovery failed: " ^ e));
        times := dt :: !times;
        incr k
      done;
      (!times, !digest)
    end
  in
  let expected_digest =
    if o.tamper then tamper_string last.report.Serve.rp_digest
    else last.report.Serve.rp_digest
  in
  let checks =
    [
      ( "zero invariant failures",
        List.for_all (fun p -> p.report.Serve.rp_invariant_failures = 0) passes );
      ( "deterministic report identical across passes",
        List.for_all (fun p -> counts p.report = reference) untraced_passes );
    ]
    @ (if durable then
         [
           ( "at least one crash and one checkpoint",
             List.for_all
               (fun p -> p.report.Serve.rp_crashes >= 1 && p.report.Serve.rp_checkpoints >= 1)
               passes );
           ("offline recover digest = live rp_digest", recovered_digest = expected_digest);
         ]
       else [])
    @
    if o.trace then
      [
        ( "traced loop report = Serve.run report",
          List.for_all (fun p -> counts p.report = reference) traced_passes );
      ]
    else []
  in
  let requests = List.fold_left (fun n p -> n + p.report.Serve.rp_requests) 0 passes in
  let shed =
    List.fold_left
      (fun n p -> n + p.report.Serve.rp_shed_queue + p.report.Serve.rp_shed_deadline)
      0 passes
  in
  let rates =
    List.map (fun p -> float_of_int p.report.Serve.rp_requests /. p.wall) untraced_passes
  in
  let e2e = end_to_end ~setup_s:(setup_s, setups) ~rates ~heap_mb in
  let recover_ms = List.map (fun t -> 1e3 *. t) recover_times in
  let extra =
    if durable && not o.trace then
      [ metric "recover_ms" "ms" (Tracer.median recover_ms) ~samples:(List.length recover_ms) ]
    else []
  in
  let last_traced = last_opt traced_passes in
  let metrics =
    match last_traced with
    | None -> e2e
    | Some p ->
        let t = Option.get p.extra in
        let r = p.report in
        let traced_wall = Tracer.median (List.map (fun p -> p.wall) traced_passes) in
        let untraced_wall = Tracer.median (List.map (fun p -> p.wall) untraced_passes) in
        (* [Serve.run] syncs a replica to the truth before each what-if
           round; the traced loop does not (see [traced_serve]).  The wall
           time that leaves out is reported on its own, per round. *)
        let rounds =
          if sc.Serve.sv_what_if_burst = 0 then 0
          else r.Serve.rp_what_ifs / sc.sv_what_if_burst
        in
        let replica_sync_ms =
          if rounds = 0 then (0.0, 0)
          else (1e3 *. (untraced_wall -. traced_wall) /. float_of_int rounds, rounds)
        in
        Ledger.metrics ~recover_ms ~replica_sync_ms
          (Tracer.aggregate p.spans)
          {
            Ledger.zero with
            Ledger.requests = r.Serve.rp_requests;
            wal_bytes = t.wal_bytes;
            checkpoint_bytes = t.checkpoint_bytes;
            replayed = r.Serve.rp_replayed;
          }
          ~pass_wall:p.wall
          ~traced_wall ~untraced_wall ~gc0:(fst p.gc) ~gc1:(snd p.gc)
  in
  result ~checks ~requests ~failed_ops:shed ~metrics ~extra
    ~spans:(match last_traced with None -> [] | Some p -> p.spans)

let run_whatif o = run_serve o ~durable:false
let run_durable o = run_serve o ~durable:true
