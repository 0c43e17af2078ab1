module Graph = Dr_topo.Graph
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults

type row = {
  loss : float;
  mtbf : float;
  mttr : float;
  failures : int;
  affected : int;
  recovered : int;
  success_ratio : float;
  latency_mean_ms : float;
  retransmits : int;
  messages_dropped : int;
  reprotect_queued : int;
  reprotect_drained : int;
  unprotected_time_s : float;
}

(* One chaos cell: a full workload replay with a seeded flap timeline and a
   seeded loss plan, both derived from the cell's own [seed] — never shared
   across cells, which is what keeps the sweep [--jobs]-independent. *)
let run_cell (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme ~loss ~mtbf
    ~mttr ~seed ?(queue = true) ?(fault_layer = true) () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  let faults =
    if fault_layer then Some (Faults.create ~seed (Faults.uniform_spec loss))
    else None
  in
  let timeline =
    Faults.flap_schedule ~seed:(seed + 1) ~edge_count:(Graph.edge_count graph)
      ~mtbf ~mttr ~horizon:cfg.Config.horizon ()
    |> List.map (fun (f : Faults.flap) ->
           (f.fail_at, f.repair_at, Churn.Edge f.edge))
  in
  let route = Routing.link_state_route_fn scheme ~with_backup:true in
  let manager =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let t =
    Churn.run manager ~name:"Robustness_exp" ~scheme ~backup_count:1 ?faults
      ~queue ~horizon:cfg.Config.horizon scenario timeline
  in
  let rs = Manager.reprotect_stats manager in
  {
    loss;
    mtbf;
    mttr;
    failures = t.Churn.failures;
    affected = t.Churn.affected;
    recovered = t.Churn.recovered;
    success_ratio = t.Churn.success_ratio;
    latency_mean_ms = t.Churn.latency_mean_ms;
    retransmits = t.Churn.retransmits;
    messages_dropped = t.Churn.messages_dropped;
    reprotect_queued = rs.Manager.queued;
    reprotect_drained = rs.Manager.drained;
    unprotected_time_s = rs.Manager.unprotected_time;
  }

(* ---- the sweep ---------------------------------------------------------- *)

let default_losses = [ 0.0; 0.05; 0.2 ]
let default_mtbfs = [ 600.0; 120.0 ]

let run ?pool (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme
    ?(losses = default_losses) ?(mtbfs = default_mtbfs) ?(mttr = 60.0)
    ?(queue = true) ?(fault_layer = true) ?(seed = 1913) () =
  List.concat_map (fun loss -> List.map (fun mtbf -> (loss, mtbf)) mtbfs) losses
  |> Runner.sweep ?pool ~name:"Robustness_exp" ~seed (fun ~seed (loss, mtbf) ->
         run_cell cfg ~avg_degree ~traffic ~lambda ~scheme ~loss ~mtbf ~mttr
           ~seed ~queue ~fault_layer ())

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Robustness: recovery under control-plane loss and repair churn@,\
     loss   mtbf(s) mttr(s) failures affected recovered success  latency(ms) \
     retrans dropped rq-queued rq-drained unprotected(s)@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%5.2f  %7.0f %7.0f %8d %8d %9d %7.4f  %11.3f %7d %7d %9d %10d %14.3f@,"
        r.loss r.mtbf r.mttr r.failures r.affected r.recovered r.success_ratio
        r.latency_mean_ms r.retransmits r.messages_dropped r.reprotect_queued
        r.reprotect_drained r.unprotected_time_s)
    rows;
  Format.fprintf ppf "@]"
