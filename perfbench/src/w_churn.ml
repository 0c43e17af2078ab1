(* recovery-churn: the [Robustness_exp.run_cell] chaos cell, driven here
   through [Engine] — D-LSR at E = 4, UT, lambda = 0.6, a seeded flap
   schedule with a network-wide MTBF of 15 s (a few hundred failures) and
   MTTR 60 s, and report/activation messages lost with probability 0.05.
   Each failure runs [Recovery.fail_edge_drtp]; each repair runs
   [restore_edge] and the reprotection drain.  DRTP recovery runs on no
   other workload.  [failover_p50_ms] is the median wall time of one
   [fail_edge_drtp] call. *)

open Common
module Robustness_exp = Dr_exp.Robustness_exp
module Engine = Dr_sim.Engine
module Scenario = Dr_sim.Scenario
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults
module Graph = Dr_topo.Graph
module Summary = Dr_stats.Summary

let avg_degree = 4.0
let lambda = 0.6
let loss = 0.05
let mtbf = 15.0
let mttr = 60.0
let scheme = Routing.Dlsr

type event = Workload of Scenario.item | Fail of int | Repair of int

type cell = {
  manager : Manager.t;
  engine : event Engine.t;
  faults : Faults.t;
  requests : int;
}

(* Everything [run_cell] builds before its first event, in its order. *)
let setup (cfg : Config.t) ~seed ~route_layer =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg Config.UT ~lambda in
  let faults = Faults.create ~seed (Faults.uniform_spec loss) in
  let timeline =
    Faults.flap_schedule ~seed:(seed + 1) ~edge_count:(Graph.edge_count graph) ~mtbf
      ~mttr ~horizon:cfg.Config.horizon ()
  in
  let route = Routing.link_state_route_fn scheme ~with_backup:true in
  let route = if route_layer then Tracer.wrap_route Tracer.Routing route else route in
  let manager =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let engine : event Engine.t = Engine.create () in
  let requests = ref 0 in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= cfg.Config.horizon then begin
        (match item.Scenario.event with
        | Scenario.Request _ -> incr requests
        | Scenario.Release _ -> ());
        Engine.schedule engine ~at:item.Scenario.time (Workload item)
      end);
  List.iter
    (fun (f : Faults.flap) ->
      Engine.schedule engine ~at:f.fail_at (Fail f.edge);
      Engine.schedule engine ~at:f.repair_at (Repair f.edge))
    timeline;
  { manager; engine; faults; requests = !requests }

type outcome = {
  row : Robustness_exp.row;
  fail_times : float list;  (** wall seconds per [fail_edge_drtp] call *)
  events : int;
  reprotect : Manager.reprotect_stats;
}

(* [run_cell]'s event loop; spans are recorded when a buffer is installed. *)
let play (cfg : Config.t) c =
  let state = Manager.state c.manager in
  let failures = ref 0 and affected = ref 0 and recovered = ref 0 in
  let retransmits = ref 0 and dropped = ref 0 in
  let latency = Summary.create () in
  let end_now = ref 0.0 and events = ref 0 in
  let fail_times = ref [] in
  let handler engine event =
    incr events;
    let now = Engine.now engine in
    end_now := max !end_now now;
    match event with
    | Workload item ->
        let layer =
          match item.Scenario.event with
          | Scenario.Request _ -> Tracer.Admit
          | Scenario.Release _ -> Tracer.Release
        in
        Tracer.span layer (fun () -> Manager.apply c.manager item)
    | Repair e ->
        Tracer.span Tracer.Restore (fun () -> Net_state.restore_edge state ~edge:e);
        ignore
          (Tracer.span Tracer.Drain (fun () -> Manager.drain_reprotect c.manager ~now))
    | Fail e ->
        incr failures;
        let report =
          Tracer.span Tracer.Recovery (fun () ->
              let t0 = Tracer.now_ns () in
              let report =
                Recovery.fail_edge_drtp state ~scheme ~faults:c.faults ~edge:e ()
              in
              fail_times := Tracer.seconds_between t0 (Tracer.now_ns ()) :: !fail_times;
              List.iter
                (fun id -> Manager.queue_reprotect c.manager ~id ~scheme ~now ())
                report.Recovery.unprotected_ids;
              report)
        in
        affected := !affected + List.length report.Recovery.outcomes;
        List.iter
          (fun (_, outcome) ->
            match outcome with
            | Recovery.Switched { latency = l; _ } | Recovery.Rerouted { latency = l; _ }
              ->
                incr recovered;
                Summary.add latency l
            | Recovery.Lost _ -> ())
          report.Recovery.outcomes;
        retransmits := !retransmits + report.Recovery.retransmits;
        dropped := !dropped + report.Recovery.messages_dropped
  in
  Tracer.span Tracer.Engine (fun () -> Engine.run c.engine ~handler);
  (match Tracer.span Tracer.Audit (fun () -> Net_state.check_invariants state) with
  | Ok () -> ()
  | Error msg -> failwith ("perfbench: invariant violated: " ^ msg));
  Manager.flush_reprotect c.manager ~now:(max !end_now cfg.Config.horizon);
  let rs = Manager.reprotect_stats c.manager in
  let row =
    {
      Robustness_exp.loss;
      mtbf;
      mttr;
      failures = !failures;
      affected = !affected;
      recovered = !recovered;
      success_ratio =
        (if !affected = 0 then 1.0 else float_of_int !recovered /. float_of_int !affected);
      latency_mean_ms =
        (if Summary.count latency = 0 then 0.0 else 1000.0 *. Summary.mean latency);
      retransmits = !retransmits;
      messages_dropped = !dropped;
      reprotect_queued = rs.Manager.queued;
      reprotect_drained = rs.Manager.drained;
      unprotected_time_s = rs.Manager.unprotected_time;
    }
  in
  { row; fail_times = !fail_times; events = !events; reprotect = rs }

let row_string (r : Robustness_exp.row) =
  Printf.sprintf "%s %s %s %d %d %d %s %s %d %d %d %d %s" (hx r.loss) (hx r.mtbf)
    (hx r.mttr) r.failures r.affected r.recovered (hx r.success_ratio)
    (hx r.latency_mean_ms) r.retransmits r.messages_dropped r.reprotect_queued
    r.reprotect_drained (hx r.unprotected_time_s)

type pass = {
  wall : float;
  requests : int;
  outcome : outcome;
  spans : Tracer.buffer list;
  gc : Gc.stat * Gc.stat;
}

let run (o : opts) =
  let cfg = config o in
  let seed = o.seed in
  let traced_unit k = o.trace && k mod 2 = 1 in
  let setup_s, setups, heap_mb, passes =
    time_boxed ~min_units:(if o.trace then 2 else 3) ~seconds:o.seconds
      ~setup:(fun k -> setup cfg ~seed ~route_layer:(traced_unit k))
      (fun k c ->
        let g0 = Gc.quick_stat () in
        let spans, (wall, outcome) =
          if traced_unit k then
            let buf = Tracer.create_buffer () in
            ( [ buf ],
              timed (fun () ->
                  Tracer.with_buffer buf (fun () ->
                      Tracer.span Tracer.Root (fun () -> play cfg c))) )
          else ([], timed (fun () -> play cfg c))
        in
        { wall; requests = c.requests; outcome; spans; gc = (g0, Gc.quick_stat ()) })
  in
  let expected =
    row_string
      (Robustness_exp.run_cell cfg ~avg_degree ~traffic:Config.UT ~lambda ~scheme ~loss
         ~mtbf ~mttr ~seed ())
  in
  let expected = if o.tamper then tamper_string expected else expected in
  let traced_passes, untraced_passes = List.partition (fun p -> p.spans <> []) passes in
  let checks =
    [
      ( "row = Robustness_exp.run_cell row",
        List.for_all (fun p -> row_string p.outcome.row = expected) untraced_passes );
    ]
    @
    if o.trace then
      [
        ( "traced row = Robustness_exp.run_cell row",
          List.for_all (fun p -> row_string p.outcome.row = expected) traced_passes );
      ]
    else []
  in
  let requests = List.fold_left (fun n p -> n + p.requests) 0 passes in
  let rates = List.map (fun p -> float_of_int p.requests /. p.wall) untraced_passes in
  let fail_ms =
    List.concat_map (fun p -> List.map (fun t -> 1e3 *. t) p.outcome.fail_times) untraced_passes
  in
  let e2e = end_to_end ~setup_s:(setup_s, setups) ~rates ~heap_mb in
  let failover =
    metric "failover_p50_ms" "ms" (Tracer.median fail_ms) ~samples:(List.length fail_ms)
  in
  let last = last_opt traced_passes in
  let metrics =
    match last with
    | None -> e2e
    | Some p ->
        let r = p.outcome.row and rs = p.outcome.reprotect in
        Ledger.metrics ~failover_ms:fail_ms
          (Tracer.aggregate p.spans)
          {
            Ledger.zero with
            Ledger.requests = p.requests;
            affected = r.Robustness_exp.affected;
            recovered = r.Robustness_exp.recovered;
            retransmits = r.Robustness_exp.retransmits;
            reprotect_queued = rs.Manager.queued;
            reprotect_drained = rs.Manager.drained;
            reprotect_attempts = rs.Manager.attempts;
            engine_events = p.outcome.events;
          }
          ~pass_wall:p.wall
          ~traced_wall:(Tracer.median (List.map (fun p -> p.wall) traced_passes))
          ~untraced_wall:(Tracer.median (List.map (fun p -> p.wall) untraced_passes))
          ~gc0:(fst p.gc) ~gc1:(snd p.gc)
  in
  result ~checks ~requests ~failed_ops:0 ~metrics
    ~extra:(if o.trace then [] else [ failover ])
    ~spans:(match last with None -> [] | Some p -> p.spans)
