module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Summary = Dr_stats.Summary

type failure = Edge of int | Group of int | Edges of int list

type tally = {
  failures : int;
  affected : int;
  recovered : int;
  lost : int;
  success_ratio : float;
  latency_mean_ms : float;
  retransmits : int;
  messages_dropped : int;
}

type event = Workload of Scenario.item | Fail of failure | Repair of failure

let run manager ~name ~scheme ~backup_count ?faults ~queue ~horizon scenario
    timeline =
  let state = Manager.state manager in
  let engine : event Engine.t = Engine.create () in
  let failures = ref 0 in
  let affected = ref 0 and recovered = ref 0 and lost = ref 0 in
  let retransmits = ref 0 and dropped = ref 0 in
  let latency = Summary.create () in
  let end_now = ref 0.0 in
  let handler engine event =
    let now = Engine.now engine in
    end_now := max !end_now now;
    match event with
    | Workload item -> Manager.apply manager item
    | Repair failure ->
        (match failure with
        | Edge edge -> Net_state.restore_edge state ~edge
        | Group group -> Net_state.restore_group state ~group
        | Edges edges ->
            List.iter (fun edge -> Net_state.restore_edge state ~edge) edges);
        (* A repair frees resources: retry the waiting unprotected
           connections. *)
        if queue then ignore (Manager.drain_reprotect manager ~now)
    | Fail failure ->
        incr failures;
        let report =
          match failure with
          | Edge edge ->
              Recovery.fail_edge_drtp state ~scheme ~backup_count ?faults ~edge ()
          | Group group ->
              Recovery.fail_group_drtp state ~scheme ~backup_count ?faults
                ~group ()
          | Edges edges ->
              Recovery.fail_edges_drtp state ~scheme ~backup_count ?faults
                ~edges ()
        in
        affected := !affected + List.length report.Recovery.outcomes;
        List.iter
          (fun (_, outcome) ->
            match outcome with
            | Recovery.Switched { latency = l; _ }
            | Recovery.Rerouted { latency = l; _ } ->
                incr recovered;
                Summary.add latency l
            | Recovery.Lost _ -> incr lost)
          report.Recovery.outcomes;
        retransmits := !retransmits + report.Recovery.retransmits;
        dropped := !dropped + report.Recovery.messages_dropped;
        if queue then
          List.iter
            (fun id ->
              Manager.queue_reprotect manager ~id ~scheme ~backup_count ~now ())
            report.Recovery.unprotected_ids
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= horizon then
        Engine.schedule engine ~at:item.Scenario.time (Workload item));
  List.iter
    (fun (fail_at, repair_at, failure) ->
      Engine.schedule engine ~at:fail_at (Fail failure);
      Engine.schedule engine ~at:repair_at (Repair failure))
    timeline;
  Engine.run engine ~handler;
  (match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> invalid_arg (name ^ ": invariant violated: " ^ msg));
  Manager.flush_reprotect manager ~now:(max !end_now horizon);
  {
    failures = !failures;
    affected = !affected;
    recovered = !recovered;
    lost = !lost;
    success_ratio =
      (if !affected = 0 then 1.0
       else float_of_int !recovered /. float_of_int !affected);
    latency_mean_ms =
      (if Summary.count latency = 0 then 0.0 else 1000.0 *. Summary.mean latency);
    retransmits = !retransmits;
    messages_dropped = !dropped;
  }
