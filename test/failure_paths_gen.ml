(* Golden pin for the failure paths: prints, for seeded 30-node states,
   every per-edge DRTP recovery report (with an MD5 of the journal bytes
   it recorded), every SRLG group recovery report, and the results of
   each Failure_eval sweep.  The output is diffed against the checked-in
   failure_paths_golden.txt by `dune runtest`; after an intentional
   behaviour change, refresh with `dune promote`.

   Floats are printed with %h so the pin is bit-exact. *)

module Graph = Dr_topo.Graph
module Routing = Drtp.Routing
module Net_state = Drtp.Net_state
module Manager = Drtp.Manager
module Recovery = Drtp.Recovery
module FE = Drtp.Failure_eval
module Srlg = Dr_resilience.Srlg
module Faults = Dr_faults.Faults
module J = Dr_obs.Journal

let graph () =
  Dr_topo.Gen.waxman ~rng:(Dr_rng.Splitmix64.create 30) ~n:30 ~avg_degree:3.5 ()

(* Admit a seeded workload: every arrival and release up to t = 600 s. *)
let load manager ~node_count =
  let spec =
    {
      Dr_sim.Workload.arrival_rate = 0.6;
      horizon = 600.0;
      lifetime_lo = 400.0;
      lifetime_hi = 900.0;
      bw = Dr_sim.Workload.Constant 1;
      pattern = Dr_sim.Workload.Uniform;
    }
  in
  let scenario =
    Dr_sim.Workload.generate (Dr_rng.Splitmix64.create 3001) ~node_count spec
  in
  Array.iter
    (fun (it : Dr_sim.Scenario.item) ->
      if it.time <= 600.0 then Manager.apply manager it)
    (Dr_sim.Scenario.items scenario)

let journal_md5 entries =
  List.map J.entry_to_json entries
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let outcome_string = function
  | Recovery.Switched { latency; reprotected } ->
      Printf.sprintf "S%h%s" latency (if reprotected then "+" else "-")
  | Recovery.Rerouted { latency; retries } ->
      Printf.sprintf "R%h/%d" latency retries
  | Recovery.Lost { latency } -> Printf.sprintf "L%h" latency

let ints l = String.concat "," (List.map string_of_int l)

let print_report label (r : Recovery.report) entries state =
  Printf.printf "%s edge=%d failed=[%s] rerouted=%d unprotected=%d ids=[%s] \
                 retx=%d dropped=%d inv=%s journal=%s\n"
    label r.edge (ints r.failed_edges) r.backups_rerouted r.backups_unprotected
    (ints r.unprotected_ids) r.retransmits r.messages_dropped
    (match Net_state.check_invariants state with
    | Ok () -> "ok"
    | Error e -> e)
    (journal_md5 entries);
  List.iter
    (fun (id, o) -> Printf.printf "  %d %s\n" id (outcome_string o))
    r.outcomes

let scheme_name = function
  | Routing.Plsr -> "p-lsr"
  | Routing.Dlsr -> "d-lsr"
  | Routing.Spf -> "spf"

(* Fail every edge in turn (restoring it afterwards) on one loaded state. *)
let recovery_pin scheme ~loss =
  let graph = graph () in
  let manager =
    Manager.create ~graph ~capacity:12 ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn scheme ~with_backup:true)
  in
  load manager ~node_count:(Graph.node_count graph);
  let state = Manager.state manager in
  let faults =
    if loss > 0.0 then Some (Faults.create ~seed:5 (Faults.uniform_spec loss))
    else None
  in
  Printf.printf "# fail_edge_drtp %s faults=%s active=%d\n" (scheme_name scheme)
    (if loss > 0.0 then string_of_float loss else "none")
    (Net_state.active_count state);
  for edge = 0 to Graph.edge_count graph - 1 do
    let report, entries =
      J.capture ~trace_seed:edge (fun () ->
          Recovery.fail_edge_drtp state ~scheme ?faults ~edge ())
    in
    print_report (Printf.sprintf "e%d" edge) report entries state;
    Net_state.restore_edge state ~edge
  done

(* An overlay SRLG model routed with two-member chains: pins the chain
   search (its journal carries the disjointness counts), the group
   recovery driver and the SRLG sweep. *)
let srlg_pin () =
  let graph = graph () in
  let srlg =
    Srlg.random_overlay ~seed:9 ~edge_count:(Graph.edge_count graph) ~extra:10
      ~size:3
  in
  let manager = ref None in
  let (), entries =
    J.capture ~trace_seed:1 (fun () ->
        let m =
          Manager.create_srlg ~srlg ~graph ~capacity:12
            ~spare_policy:Net_state.Multiplexed
            ~route:(Routing.chain_route_fn ~k:2 Routing.Dlsr)
        in
        load m ~node_count:(Graph.node_count graph);
        manager := Some m)
  in
  let state = Manager.state (Option.get !manager) in
  Printf.printf "# chain admission d-lsr k=2 active=%d journal=%s\n"
    (Net_state.active_count state) (journal_md5 entries);
  let r = FE.evaluate_srlg state in
  Printf.printf "evaluate_srlg attempts=%d successes=%d evaluated=%d\n"
    r.attempts r.successes r.edges_evaluated;
  Printf.printf "# fail_group_drtp d-lsr k=2 groups=%d\n" (Srlg.group_count srlg);
  for group = 0 to Srlg.group_count srlg - 1 do
    let report, entries =
      J.capture ~trace_seed:group (fun () ->
          Recovery.fail_group_drtp state ~scheme:Routing.Dlsr ~backup_count:2
            ~group ())
    in
    print_report (Printf.sprintf "g%d" group) report entries state;
    Net_state.restore_group state ~group
  done

let print_result name (r : FE.result) =
  Printf.printf "%s attempts=%d successes=%d evaluated=%d\n" name r.attempts
    r.successes r.edges_evaluated;
  List.iter
    (fun (o : FE.edge_outcome) ->
      Printf.printf "  e%d %d/%d\n" o.edge o.activated o.affected)
    r.per_edge

let eval_pin scheme =
  let graph = graph () in
  let manager =
    Manager.create ~graph ~capacity:12 ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn scheme ~with_backup:true)
  in
  load manager ~node_count:(Graph.node_count graph);
  let state = Manager.state manager in
  Printf.printf "# failure_eval %s\n" (scheme_name scheme);
  print_result "evaluate" (FE.evaluate state);
  print_result "evaluate(free)" (FE.evaluate ~spare_only:false state);
  print_result "evaluate_nodes" (FE.evaluate_nodes state);
  for node = 0 to Graph.node_count graph - 1 do
    let o = FE.evaluate_node state ~node in
    Printf.printf "  n%d %d/%d endpoint=%d\n" node o.transit_activated
      o.transit_affected o.endpoint_lost
  done;
  print_result "evaluate_double" (FE.evaluate_double state);
  print_result "evaluate_regional" (FE.evaluate_regional state ~radius:0.2)

let () =
  J.set_enabled true;
  List.iter
    (fun scheme ->
      (* 0.5 loss exhausts retransmission budgets: the reactive fallback. *)
      List.iter (fun loss -> recovery_pin scheme ~loss) [ 0.0; 0.05; 0.5 ];
      eval_pin scheme)
    [ Routing.Plsr; Routing.Dlsr ];
  srlg_pin ()
