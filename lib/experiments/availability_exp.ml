module Graph = Dr_topo.Graph
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults

type row = {
  label : string;
  mtbf : float;
  failures : int;
  switchovers : int;
  reroutes : int;
  drops : int;
  downtime_s : float;
  service_s : float;
  availability : float;
  nines : float;
}

type approach = Drtp_scheme of Routing.scheme | Reactive

let approach_label = function
  | Drtp_scheme s -> "DRTP/" ^ Routing.scheme_name s
  | Reactive -> "reactive"

type event = Workload of Scenario.item | Fail of int | Repair of int

let run (cfg : Config.t) ~avg_degree ~traffic ~lambda ?(mtbf = 600.0)
    ?(mttr = 120.0) ?(failure_seed = 97) () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  (* One failure timeline shared by every approach. *)
  let timeline =
    Faults.flap_schedule ~seed:failure_seed ~edge_count:(Graph.edge_count graph)
      ~mtbf ~mttr ~horizon:cfg.Config.horizon ()
  in
  let run_approach approach =
    let route =
      match approach with
      | Drtp_scheme s -> Routing.link_state_route_fn s ~with_backup:true
      | Reactive -> Routing.link_state_route_fn Routing.Plsr ~with_backup:false
    in
    let manager =
      Manager.create ~graph ~capacity:cfg.Config.capacity
        ~spare_policy:Net_state.Multiplexed ~route
    in
    let state = Manager.state manager in
    let engine : event Engine.t = Engine.create () in
    let end_time = Hashtbl.create 256 in
    let switchovers = ref 0 and reroutes = ref 0 and drops = ref 0 in
    let failures = ref 0 in
    let downtime = ref 0.0 and service = ref 0.0 in
    let handler engine event =
      let now = Engine.now engine in
      match event with
      | Workload ({ event = Scenario.Request { conn; duration; _ }; _ } as item) ->
          Manager.apply manager item;
          if Net_state.find state conn <> None then begin
            Hashtbl.replace end_time conn (now +. duration);
            service := !service +. duration
          end
      | Workload item -> Manager.apply manager item
      | Repair e -> Net_state.restore_edge state ~edge:e
      | Fail e ->
          incr failures;
          let report =
            match approach with
            | Drtp_scheme s -> Recovery.fail_edge_drtp state ~scheme:s ~edge:e ()
            | Reactive -> Recovery.fail_edge_reactive state ~edge:e ()
          in
          List.iter
            (fun (id, outcome) ->
              match outcome with
              | Recovery.Switched { latency; _ } ->
                  incr switchovers;
                  downtime := !downtime +. latency
              | Recovery.Rerouted { latency; _ } ->
                  incr reroutes;
                  downtime := !downtime +. latency
              | Recovery.Lost { latency } ->
                  incr drops;
                  let committed_end =
                    Option.value ~default:now (Hashtbl.find_opt end_time id)
                  in
                  downtime := !downtime +. latency +. max 0.0 (committed_end -. now))
            report.Recovery.outcomes
    in
    Scenario.iter scenario (fun item ->
        if item.Scenario.time <= cfg.Config.horizon then
          Engine.schedule engine ~at:item.Scenario.time (Workload item));
    List.iter
      (fun (f : Faults.flap) ->
        Engine.schedule engine ~at:f.fail_at (Fail f.edge);
        Engine.schedule engine ~at:f.repair_at (Repair f.edge))
      timeline;
    Engine.run engine ~handler;
    (match Net_state.check_invariants state with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Availability_exp: invariant violated: " ^ msg));
    let availability =
      if !service <= 0.0 then 1.0 else 1.0 -. (!downtime /. !service)
    in
    {
      label = approach_label approach;
      mtbf;
      failures = !failures;
      switchovers = !switchovers;
      reroutes = !reroutes;
      drops = !drops;
      downtime_s = !downtime;
      service_s = !service;
      availability;
      nines =
        (if availability >= 1.0 then 9.0
         else -.Float.log10 (1.0 -. availability));
    }
  in
  List.map run_approach
    [ Drtp_scheme Routing.Dlsr; Drtp_scheme Routing.Plsr; Reactive ]

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Extension E6: service availability under failure/repair@,\
     approach      mtbf(s) failures switch reroute drops downtime(s) service(s)  availability  nines@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-12s  %7.0f %8d %6d %7d %5d %11.1f %10.0f  %.6f  %5.2f@," r.label
        r.mtbf r.failures r.switchovers r.reroutes r.drops r.downtime_s
        r.service_s r.availability r.nines)
    rows;
  Format.fprintf ppf "@]"
