(* paper-sweep: the [claims --quick] grid through [Sweep.run] on a 2-domain
   [Pool] — E = 3 and 4, UT and NT, two load points per degree, and per
   cell the no-backup and BF-no-backup baselines plus D-LSR, P-LSR and BF:
   40 measured replays, i.e. what regenerating the paper costs.  Time goes
   to LSR routing, APLV/CV/SC_i bookkeeping, fault-tolerance snapshots and
   bounded flooding; no what-ifs, WAL or failures run here. *)

open Common
module Sweep = Dr_exp.Sweep
module Runner = Dr_exp.Runner
module Report = Dr_exp.Report
module Pool = Dr_parallel.Pool
module Routing = Drtp.Routing
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Failure_eval = Drtp.Failure_eval
module Resources = Drtp.Resources
module Bounded_flood = Dr_flood.Bounded_flood
module Scenario = Dr_sim.Scenario
module Summary = Dr_stats.Summary
module Path = Dr_topo.Path

let jobs = 2
let degrees = [ 3.0; 4.0 ]
let traffics = [ Config.UT; Config.NT ]

(* [claims --quick]: the first and third load point of each degree. *)
let lambdas degree =
  match Config.lambdas_for_degree degree with
  | a :: _ :: c :: _ -> [ a; c ]
  | other -> other

let bf = Bounded_flood.default_config

(* The replay tasks [Sweep.run] plans for one degree, in its order. *)
let plan cfg degree =
  let graph = Config.make_graph cfg ~avg_degree:degree in
  List.concat_map
    (fun traffic ->
      List.concat_map
        (fun lambda ->
          let scenario = Config.make_scenario cfg traffic ~lambda in
          List.map
            (fun scheme -> (graph, scenario, scheme))
            (Runner.No_backup :: Runner.Bf_no_backup bf :: Runner.paper_schemes))
        (lambdas degree))
    traffics
  |> Array.of_list

(* Exact rendering of a measurement, for traced ≡ untraced comparison. *)
let canon (m : Runner.measurement) =
  let s = m.Runner.ft_per_snapshot in
  String.concat " "
    [
      m.Runner.label; string_of_int m.snapshots; hx m.ft_overall;
      string_of_int (Summary.count s); hx (Summary.total_weight s);
      hx m.node_ft_overall; hx m.avg_active; string_of_int m.requests;
      string_of_int m.accepted; string_of_int m.rejected_no_primary;
      string_of_int m.rejected_no_backup; string_of_int m.degraded;
      string_of_int m.unprotected; hx m.acceptance; hx m.avg_spare_fraction;
      hx m.avg_deficit_units;
      (match m.flood_messages_per_request with None -> "-" | Some f -> hx f);
      hx m.avg_backup_hops; hx m.avg_primary_hops;
    ]

(* The measurements of a sweep in plan order. *)
let in_plan_order (t : Sweep.t) =
  List.concat_map
    (fun traffic ->
      List.concat_map
        (fun lambda ->
          let here tr l = tr = traffic && Float.abs (l -. lambda) < 1e-9 in
          List.filter_map
            (fun (tr, l, m) -> if here tr l then Some m else None)
            t.Sweep.baselines
          @ List.filter_map
              (fun (c : Sweep.cell) ->
                if here c.traffic c.lambda then Some c.measurement else None)
              t.Sweep.cells)
        (lambdas t.Sweep.avg_degree))
    traffics

let sweep_requests (t : Sweep.t) =
  List.fold_left (fun n (_, _, m) -> n + m.Runner.requests) 0 t.Sweep.baselines
  + List.fold_left
      (fun n (c : Sweep.cell) -> n + c.measurement.Runner.requests)
      0 t.Sweep.cells

(* ---- the traced replay: [Runner.run]'s loop with spans ------------------ *)

let replay (cfg : Config.t) ~graph ~scenario ~scheme flood_stats =
  let link_state s ~with_backup =
    Tracer.wrap_route Tracer.Routing (Routing.link_state_route_fn s ~with_backup)
  in
  let flood c ~with_backup =
    let hop_matrix = Dr_topo.Shortest_path.hop_matrix graph in
    Tracer.wrap_route Tracer.Flood
      (Bounded_flood.route_fn ~config:c ~stats:flood_stats ~with_backup
         ~hop_matrix ())
  in
  let base_route =
    match scheme with
    | Runner.Lsr s -> link_state s ~with_backup:true
    | Runner.No_backup -> link_state Routing.Plsr ~with_backup:false
    | Runner.Bf c -> flood c ~with_backup:true
    | Runner.Bf_no_backup c -> flood c ~with_backup:false
    | _ -> invalid_arg "perfbench: scheme outside the paper grid"
  in
  let primary_hops = Summary.create () and backup_hops = Summary.create () in
  let route : Routing.route_fn =
   fun state ~src ~dst ~bw ->
    match base_route state ~src ~dst ~bw with
    | Error _ as e -> e
    | Ok pair ->
        Summary.add primary_hops (float_of_int (Path.hops pair.Routing.primary));
        List.iter
          (fun b -> Summary.add backup_hops (float_of_int (Path.hops b)))
          pair.Routing.backups;
        Ok pair
  in
  let manager =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let state = Manager.state manager in
  let attempts = ref 0 and successes = ref 0 in
  let node_attempts = ref 0 and node_successes = ref 0 in
  let ft_per_snapshot = Summary.create () in
  let spare_fraction = Summary.create () and deficit = Summary.create () in
  let snapshots = ref 0 in
  let total_capacity =
    float_of_int (Resources.total_capacity (Net_state.resources state))
  in
  let take_snapshot () =
    incr snapshots;
    let r, rn =
      Tracer.span Tracer.Failure_eval (fun () ->
          let r = Failure_eval.evaluate state in
          (r, Failure_eval.evaluate_nodes state))
    in
    attempts := !attempts + r.Failure_eval.attempts;
    successes := !successes + r.Failure_eval.successes;
    node_attempts := !node_attempts + rn.Failure_eval.attempts;
    node_successes := !node_successes + rn.Failure_eval.successes;
    Summary.add ft_per_snapshot (Failure_eval.fault_tolerance r);
    Summary.add spare_fraction
      (float_of_int (Resources.total_spare (Net_state.resources state))
      /. total_capacity);
    Summary.add deficit (float_of_int (Net_state.total_spare_deficit state))
  in
  let horizon = cfg.Config.horizon and warmup = cfg.Config.warmup in
  let cursor = ref warmup and active_time = ref 0.0 in
  let integrate_to t =
    let t = min t horizon in
    if t > !cursor then begin
      active_time :=
        !active_time
        +. (float_of_int (Net_state.active_count state) *. (t -. !cursor));
      cursor := t
    end
  in
  let next_sample = ref warmup in
  let sample_due_before t =
    while !next_sample <= horizon && !next_sample < t do
      integrate_to !next_sample;
      take_snapshot ();
      next_sample := !next_sample +. cfg.Config.sample_every
    done
  in
  let items = Scenario.items scenario in
  let n = Array.length items in
  let i = ref 0 in
  while !i < n && items.(!i).Scenario.time <= horizon do
    let item = items.(!i) in
    sample_due_before item.Scenario.time;
    integrate_to item.Scenario.time;
    let layer =
      match item.Scenario.event with
      | Scenario.Request _ -> Tracer.Admit
      | Scenario.Release _ -> Tracer.Release
    in
    Tracer.span layer (fun () -> Manager.apply manager item);
    incr i
  done;
  sample_due_before (horizon +. 1.0);
  integrate_to horizon;
  let stats = Manager.stats manager in
  let window = horizon -. warmup in
  let mean_or_0 s = if Summary.count s = 0 then 0.0 else Summary.mean s in
  {
    Runner.label = Runner.scheme_label scheme;
    snapshots = !snapshots;
    ft_overall =
      (if !attempts = 0 then 1.0
       else float_of_int !successes /. float_of_int !attempts);
    ft_per_snapshot;
    node_ft_overall =
      (if !node_attempts = 0 then 1.0
       else float_of_int !node_successes /. float_of_int !node_attempts);
    avg_active = (if window > 0.0 then !active_time /. window else 0.0);
    requests = stats.Manager.requests;
    accepted = stats.Manager.accepted;
    rejected_no_primary = stats.Manager.rejected_no_primary;
    rejected_no_backup = stats.Manager.rejected_no_backup;
    degraded = stats.Manager.degraded;
    unprotected = stats.Manager.unprotected;
    acceptance = Manager.acceptance_ratio manager;
    avg_spare_fraction = mean_or_0 spare_fraction;
    avg_deficit_units = mean_or_0 deficit;
    flood_messages_per_request =
      (match scheme with
      | Runner.Bf _ | Runner.Bf_no_backup _ ->
          Some
            (if flood_stats.Bounded_flood.floods = 0 then 0.0
             else
               float_of_int flood_stats.Bounded_flood.total_messages
               /. float_of_int flood_stats.Bounded_flood.floods)
      | _ -> None);
    avg_backup_hops = mean_or_0 backup_hops;
    avg_primary_hops = mean_or_0 primary_hops;
  }

let traced_task cfg (graph, scenario, scheme) =
  let buf = Tracer.create_buffer () in
  let flood_stats = Bounded_flood.fresh_stats () in
  let m =
    Tracer.with_buffer buf (fun () ->
        Tracer.span Tracer.Root (fun () ->
            replay cfg ~graph ~scenario ~scheme flood_stats))
  in
  (m, buf, flood_stats)

(* ---- the workload -------------------------------------------------------- *)

type pass = {
  wall : float;
  requests : int;
  errors : int;  (** pool errors and failed cells *)
  canon : string list;  (** measurements in plan order *)
  claims : string;  (** claims JSON (untraced passes only) *)
  spans : Tracer.buffer list;  (** traced passes only *)
  floods : int * int;
  gc : Gc.stat * Gc.stat;
}

let untraced_pass pool cfg =
  let g0 = Gc.quick_stat () in
  let wall, (e3, e4) =
    timed (fun () ->
        let run degree =
          Sweep.run ~pool cfg ~avg_degree:degree ~lambdas:(lambdas degree) ()
        in
        let e3 = run 3.0 in
        (e3, run 4.0))
  in
  {
    wall;
    requests = sweep_requests e3 + sweep_requests e4;
    errors = List.length e3.Sweep.failures + List.length e4.Sweep.failures;
    canon = List.map canon (in_plan_order e3 @ in_plan_order e4);
    claims = Report.claims_to_json (Report.check_claims ~e3 ~e4);
    spans = [];
    floods = (0, 0);
    gc = (g0, Gc.quick_stat ());
  }

let traced_pass pool cfg =
  let g0 = Gc.quick_stat () in
  let wall, results =
    timed (fun () ->
        List.concat_map
          (fun degree ->
            Array.to_list (Pool.map pool (traced_task cfg) (plan cfg degree)))
          degrees)
  in
  let ok = List.filter_map Result.to_option results in
  {
    wall;
    requests = List.fold_left (fun n (m, _, _) -> n + m.Runner.requests) 0 ok;
    errors = List.length results - List.length ok;
    canon = List.map (fun (m, _, _) -> canon m) ok;
    claims = "";
    spans = List.map (fun (_, b, _) -> b) ok;
    floods =
      List.fold_left
        (fun (f, msgs) (_, _, s) ->
          (f + s.Bounded_flood.floods, msgs + s.Bounded_flood.total_messages))
        (0, 0) ok;
    gc = (g0, Gc.quick_stat ());
  }

let run (o : opts) =
  let cfg = config o in
  (* Set-up times the one input [Sweep.run] is handed besides the
     configuration: the pool and its domains.  The graphs and scenarios are
     built inside [Sweep.run], in the timed window. *)
  let setup _ = Pool.create ~jobs () in
  let setup_s, setups, heap_mb, passes =
    time_boxed ~min_units:(if o.trace then 2 else 1) ~seconds:o.seconds ~setup
      ~dispose:Pool.shutdown (fun k pool ->
        if o.trace && k mod 2 = 1 then traced_pass pool cfg else untraced_pass pool cfg)
  in
  let traced, untraced = List.partition (fun p -> p.spans <> []) passes in
  let first = List.hd untraced in
  let expected_claims =
    if o.tamper then tamper_string first.claims else first.claims
  in
  let fixture_check =
    if o.seed = 42 && o.size = Full then
      let fixture = read_file o.fixture in
      [ ("claims JSON = seed-42 fixture", first.claims = fixture) ]
    else []
  in
  let checks =
    [
      ("no failed replays", List.for_all (fun p -> p.errors = 0) passes);
      ( "claims JSON identical across passes",
        List.for_all (fun p -> p.claims = expected_claims) untraced );
    ]
    @ fixture_check
    @
    if o.trace then
      [
        ( "traced measurements = Sweep.run measurements",
          List.for_all (fun p -> p.canon = first.canon) traced );
      ]
    else []
  in
  let requests = List.fold_left (fun n p -> n + p.requests) 0 passes in
  let errors = List.fold_left (fun n p -> n + p.errors) 0 passes in
  let rates = List.map (fun p -> float_of_int p.requests /. p.wall) untraced in
  let e2e = end_to_end ~setup_s:(setup_s, setups) ~rates ~heap_mb in
  let last = last_opt traced in
  let metrics =
    match last with
    | None -> e2e
    | Some last ->
        let floods, flood_messages = last.floods in
        Ledger.metrics
          (Tracer.aggregate last.spans)
          { Ledger.zero with Ledger.requests = last.requests; floods; flood_messages; jobs }
          ~pass_wall:last.wall
          ~traced_wall:(Tracer.median (List.map (fun p -> p.wall) traced))
          ~untraced_wall:(Tracer.median (List.map (fun p -> p.wall) untraced))
          ~gc0:(fst last.gc) ~gc1:(snd last.gc)
  in
  result ~checks ~requests ~failed_ops:errors ~metrics ~extra:[]
    ~spans:(match last with None -> [] | Some p -> p.spans)
