module Graph = Dr_topo.Graph
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Failure_eval = Drtp.Failure_eval
module Srlg = Dr_resilience.Srlg

type row = {
  k : int;
  mean_size : int;
  groups : int;
  acceptance : float;
  bursts : int;
  affected : int;
  recovered : int;
  lost : int;
  success_ratio : float;
  latency_mean_ms : float;
  srlg_coverage : float;
}

(* One cell: a full workload replay under a seeded correlated-failure
   timeline over a seeded SRLG partition.  Both timelines derive from the
   cell's own [seed] — never shared across cells, which keeps the sweep
   [--jobs]-independent. *)
let run_cell (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme ~k
    ~mean_size ~mtbf ~mttr ?regional ?overlay ?(baseline = false) ~seed () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  let edge_count = Graph.edge_count graph in
  let srlg =
    match overlay with
    | Some extra ->
        Srlg.random_overlay ~seed:(seed + 2) ~edge_count ~extra
          ~size:(max 2 mean_size)
    | None ->
        if mean_size <= 1 then Srlg.singletons ~edge_count
        else Srlg.random_partition ~seed:(seed + 2) ~edge_count ~mean_size
  in
  let bursts =
    let base =
      Srlg.group_schedule ~seed:(seed + 1) srlg ~mtbf ~mttr
        ~horizon:cfg.Config.horizon ()
    in
    match regional with
    | None -> base
    | Some radius ->
        let reg =
          Srlg.regional_schedule ~seed:(seed + 4) ~graph ~radius ~mtbf ~mttr
            ~horizon:cfg.Config.horizon ()
        in
        Srlg.merge_schedules ~edge_count base reg
  in
  let timeline =
    List.map
      (fun (b : Srlg.burst) ->
        ( b.fail_at,
          b.repair_at,
          match b.group with
          | Some g -> Churn.Group g
          | None -> Churn.Edges b.edges ))
      bursts
  in
  let route =
    if baseline then Routing.link_state_route_fn ~backup_count:k scheme ~with_backup:true
    else Routing.chain_route_fn ~k scheme
  in
  let manager =
    Manager.create_srlg ~srlg ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  if not baseline then
    Manager.set_reprotect_router manager Manager.chain_reprotect_router;
  let t =
    Churn.run manager ~name:"Resilience_exp" ~scheme ~backup_count:k ~queue:true
      ~horizon:cfg.Config.horizon scenario timeline
  in
  (* All groups were repaired by the schedule, so this is a static
     what-if over the surviving admission state: the fraction of
     primaries that would ride out the failure of their worst SRLG. *)
  let ft =
    Failure_eval.fault_tolerance
      (Failure_eval.evaluate_srlg (Manager.state manager))
  in
  {
    k;
    mean_size;
    groups = Srlg.group_count srlg;
    acceptance = Manager.acceptance_ratio manager;
    bursts = t.Churn.failures;
    affected = t.Churn.affected;
    recovered = t.Churn.recovered;
    lost = t.Churn.lost;
    success_ratio = t.Churn.success_ratio;
    latency_mean_ms = t.Churn.latency_mean_ms;
    srlg_coverage = ft;
  }

(* ---- the sweep ---------------------------------------------------------- *)

let default_ks = [ 1; 2; 3 ]
let default_sizes = [ 1; 4 ]

let run ?pool (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme
    ?(ks = default_ks) ?(mean_sizes = default_sizes) ?(mtbf = 300.0)
    ?(mttr = 60.0) ?regional ?overlay ?(baseline = false) ?(seed = 4217) () =
  List.concat_map (fun s -> List.map (fun k -> (k, s)) ks) mean_sizes
  |> Runner.sweep ?pool ~name:"Resilience_exp" ~seed (fun ~seed (k, mean_size) ->
         run_cell cfg ~avg_degree ~traffic ~lambda ~scheme ~k ~mean_size ~mtbf
           ~mttr ?regional ?overlay ~baseline ~seed ())

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Resilience: k-resilient chains under correlated (SRLG) failures@,\
     k  srlg-size groups accept  bursts affected recovered lost success  \
     latency(ms) srlg-ft@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%d  %9d %6d %6.4f %7d %8d %9d %4d %7.4f  %11.3f %7.4f@," r.k
        r.mean_size r.groups r.acceptance r.bursts r.affected r.recovered
        r.lost r.success_ratio r.latency_mean_ms r.srlg_coverage)
    rows;
  (* Headline: for each non-singleton density, how much of the k=1
     degradation do deeper chains win back? *)
  List.iter
    (fun size ->
      match
        List.filter (fun r -> r.mean_size = size && r.mean_size > 1) rows
      with
      | [] -> ()
      | group -> (
          let at k = List.find_opt (fun r -> r.k = k) group in
          let best =
            List.fold_left
              (fun acc r ->
                match acc with
                | Some b when b.success_ratio >= r.success_ratio -> acc
                | _ -> Some r)
              None group
          in
          match (at 1, best) with
          | Some r1, Some rb when rb.k > 1 ->
              Format.fprintf ppf
                "srlg-size %d: success %0.4f at k=1 -> %0.4f at k=%d@," size
                r1.success_ratio rb.success_ratio rb.k
          | _ -> ()))
    (List.sort_uniq compare (List.map (fun r -> r.mean_size) rows));
  Format.fprintf ppf "@]"
