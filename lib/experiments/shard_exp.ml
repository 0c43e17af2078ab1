module Graph = Dr_topo.Graph
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Failure_eval = Drtp.Failure_eval
module Faults = Dr_faults.Faults
module Shard_sim = Dr_shard.Shard_sim

type row = {
  parts : int;
  interval : float;
  loss : float;
  cut : int;
  requests : int;
  accepted : int;
  acceptance : float;
  inter_shard : int;
  setup_failures : int;
  crankbacks : int;
  lost : int;
  lsa_per_second : float;
  avg_staleness : float;
  decision_age : float;
  lag_mean : float;
  lag_max : float;
  divergence : float;
  ft : float;
  avg_active : float;
}

let default_parts = [ 1; 2; 4; 8 ]
let default_intervals = [ 0.0; 5.0; 30.0 ]
let default_losses = [ 0.0; 0.1 ]

(* The centralised control arm: the same workload and sampling cadence
   driven straight through Drtp.Manager on ground truth.  The single-shard
   sharded run must reproduce these rows byte-for-byte (the CI gate). *)
let run_centralised (cfg : Config.t) ~graph ~scenario ~scheme ~backup_count
    ~parts ~interval ~loss =
  let route =
    if backup_count = 0 then Routing.link_state_route_fn scheme ~with_backup:false
    else Routing.link_state_route_fn ~backup_count scheme ~with_backup:true
  in
  let manager =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let state = Manager.state manager in
  let engine : [ `Workload of Scenario.item | `Sample ] Engine.t =
    Engine.create ()
  in
  let warmup = cfg.Config.warmup and horizon = cfg.Config.horizon in
  let attempts = ref 0 and successes = ref 0 in
  let cursor = ref warmup in
  let active_time = ref 0.0 in
  let integrate_to t =
    let t = min t horizon in
    if t > !cursor then begin
      active_time :=
        !active_time
        +. (float_of_int (Net_state.active_count state) *. (t -. !cursor));
      cursor := t
    end
  in
  let handler engine event =
    integrate_to (Engine.now engine);
    match event with
    | `Workload item -> Manager.apply manager item
    | `Sample ->
        let r = Failure_eval.evaluate state in
        attempts := !attempts + r.Failure_eval.attempts;
        successes := !successes + r.Failure_eval.successes
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= horizon then
        Engine.schedule engine ~at:item.Scenario.time (`Workload item));
  let rec schedule_samples t =
    if t <= horizon then begin
      Engine.schedule engine ~at:t `Sample;
      schedule_samples (t +. cfg.Config.sample_every)
    end
  in
  schedule_samples warmup;
  Engine.run engine ~handler;
  integrate_to horizon;
  let window = horizon -. warmup in
  let s = Manager.stats manager in
  {
    parts;
    interval;
    loss;
    cut = 0;
    requests = s.Manager.requests;
    accepted = s.Manager.accepted;
    acceptance = Manager.acceptance_ratio manager;
    inter_shard = 0;
    setup_failures = 0;
    crankbacks = 0;
    lost = 0;
    lsa_per_second = 0.0;
    avg_staleness = 0.0;
    decision_age = 0.0;
    lag_mean = 0.0;
    lag_max = 0.0;
    divergence = 0.0;
    ft =
      (if !attempts = 0 then 1.0
       else float_of_int !successes /. float_of_int !attempts);
    avg_active = (if window > 0.0 then !active_time /. window else 0.0);
  }

let run_cell (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme ~backup_count
    ~parts ~interval ~loss ~lsa_refresh ~flood_delay ~hop_delay ~max_retries
    ~partition_seed ?(baseline = false) ~seed () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  if baseline then
    run_centralised cfg ~graph ~scenario ~scheme ~backup_count ~parts ~interval
      ~loss
  else begin
    let faults =
      if loss > 0.0 then
        Some
          (Faults.create ~seed:(seed + 3)
             { Faults.zero_spec with p_lsa = loss; p_setup = loss; p_ack = loss })
      else None
    in
    let config =
      {
        Shard_sim.default_config with
        Shard_sim.scheme;
        backup_count;
        parts;
        partition_seed;
        lsa_interval = interval;
        lsa_refresh;
        lsa_flood_delay = flood_delay;
        hop_delay;
        max_retries;
        faults;
      }
    in
    let r =
      Shard_sim.run ~config ~graph ~capacity:cfg.Config.capacity ~scenario
        ~warmup:cfg.Config.warmup ~horizon:cfg.Config.horizon
        ~sample_every:cfg.Config.sample_every ()
    in
    let s = r.Shard_sim.stats in
    {
      parts;
      interval;
      loss;
      cut = r.Shard_sim.cut_edges;
      requests = s.Shard_sim.requests;
      accepted = s.Shard_sim.accepted;
      acceptance = r.Shard_sim.acceptance;
      inter_shard = s.Shard_sim.inter_shard;
      setup_failures = s.Shard_sim.setup_failures;
      crankbacks = s.Shard_sim.crankbacks;
      lost = s.Shard_sim.lost_after_retries;
      lsa_per_second = r.Shard_sim.lsa_per_second;
      avg_staleness = r.Shard_sim.avg_staleness;
      decision_age = r.Shard_sim.decision_age_mean;
      lag_mean = r.Shard_sim.convergence_lag_mean;
      lag_max = r.Shard_sim.convergence_lag_max;
      divergence = r.Shard_sim.divergence_fraction;
      ft = r.Shard_sim.ft_overall;
      avg_active = r.Shard_sim.avg_active;
    }
  end

let run ?pool (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme
    ?(backup_count = 1) ?(parts_list = default_parts)
    ?(intervals = default_intervals) ?(losses = default_losses)
    ?(lsa_refresh = 30.0) ?(flood_delay = 0.050) ?(hop_delay = 0.001)
    ?(max_retries = 1) ?(baseline = false) ?(seed = 6311) () =
  (* One partition for the whole sweep; every cell draws its own [seed]. *)
  let partition_seed = seed + 17 in
  List.concat_map
    (fun p ->
      List.concat_map (fun i -> List.map (fun l -> (p, i, l)) losses) intervals)
    parts_list
  |> Runner.sweep ?pool ~name:"Shard_exp" ~seed
       (fun ~seed (parts, interval, loss) ->
         run_cell cfg ~avg_degree ~traffic ~lambda ~scheme ~backup_count ~parts
           ~interval ~loss ~lsa_refresh ~flood_delay ~hop_delay ~max_retries
           ~partition_seed ~baseline ~seed ())

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Sharded control plane: staleness divergence and convergence lag@,\
     shards lsa-int loss   cut accept  inter setfail crank lost  lsa/s  \
     stale    age(s)  lag(s) lagmax  diverge     ft  active@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%6d %7.1f %4.2f %5d %6.4f %6d %7d %5d %4d %6.2f %6.2f %9.3f %7.3f \
         %6.1f %8.4f %6.4f %7.1f@,"
        r.parts r.interval r.loss r.cut r.acceptance r.inter_shard
        r.setup_failures r.crankbacks r.lost r.lsa_per_second r.avg_staleness
        r.decision_age r.lag_mean r.lag_max r.divergence r.ft r.avg_active)
    rows;
  (* Headline: per shard count, what heavier LSA damping costs in
     divergent decisions. *)
  List.iter
    (fun p ->
      let group = List.filter (fun r -> r.parts = p && r.loss = 0.0) rows in
      match group with
      | [] | [ _ ] -> ()
      | _ ->
          let by_interval =
            List.sort (fun a b -> compare a.interval b.interval) group
          in
          let lo = List.hd by_interval
          and hi = List.hd (List.rev by_interval) in
          if lo.interval < hi.interval then
            Format.fprintf ppf
              "shards %d: divergence %0.4f at interval %.1fs -> %0.4f at \
               %.1fs@,"
              p lo.divergence lo.interval hi.divergence hi.interval)
    (List.sort_uniq compare
       (List.filter_map
          (fun r -> if r.parts > 1 then Some r.parts else None)
          rows));
  Format.fprintf ppf "@]"
