module Graph = Dr_topo.Graph
module Path = Dr_topo.Path

type edge_outcome = { edge : int; affected : int; activated : int }

type result = {
  attempts : int;
  successes : int;
  edges_evaluated : int;
  per_edge : edge_outcome list;
}

let fault_tolerance r =
  if r.attempts = 0 then 1.0
  else float_of_int r.successes /. float_of_int r.attempts

let merge_results a b =
  {
    attempts = a.attempts + b.attempts;
    successes = a.successes + b.successes;
    edges_evaluated = a.edges_evaluated + b.edges_evaluated;
    per_edge = a.per_edge @ b.per_edge;
  }

let empty_result = { attempts = 0; successes = 0; edges_evaluated = 0; per_edge = [] }

(* The one contention model every variant shares: victims in connection-id
   order, each activating the first backup (in priority order) that avoids
   the failure ([crosses] says whether a path touches a failed edge) and
   fits the per-link budget of simultaneous grants, in bandwidth units.
   Returns how many activated. *)
let activate_greedy ~spare_only state ~crosses victims =
  match victims with
  | [] -> 0
  | _ ->
      let resources = Net_state.resources state in
      (* Only links on some victim's backup matter; keep the budgets
         sparse. *)
      let budget = Hashtbl.create 32 in
      let budget_of l =
        match Hashtbl.find_opt budget l with
        | Some b -> b
        | None ->
            let b =
              Resources.spare_bw resources l
              + if spare_only then 0 else Resources.free resources l
            in
            Hashtbl.replace budget l b;
            b
      in
      let try_backup (conn : Net_state.conn) b =
        if crosses b then false
        else begin
          let links = Path.links b in
          if List.for_all (fun l -> budget_of l >= conn.bw) links then begin
            List.iter
              (fun l -> Hashtbl.replace budget l (budget_of l - conn.bw))
              links;
            true
          end
          else false
        end
      in
      List.fold_left
        (fun n (conn : Net_state.conn) ->
          if List.exists (try_backup conn) conn.backups then n + 1 else n)
        0 victims

(* The accumulator every whole-network sweep shares: [f] reports each
   hypothetical failure's (affected, activated) through [count]; only
   failures that hit a primary are evaluated. *)
let sweep f =
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  let count affected activated =
    if affected > 0 then begin
      incr evaluated;
      attempts := !attempts + affected;
      successes := !successes + activated
    end
  in
  f count;
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = [];
  }

let evaluate_edge ?(spare_only = true) state ~edge =
  let victims = Net_state.primaries_crossing_edge state edge in
  {
    edge;
    affected = List.length victims;
    activated =
      activate_greedy ~spare_only state
        ~crosses:(fun b -> Path.crosses_edge b edge)
        victims;
  }

let evaluate ?spare_only state =
  let per_edge = ref [] in
  let r =
    sweep (fun count ->
        Graph.iter_edges (Net_state.graph state) (fun edge ->
            let o = evaluate_edge ?spare_only state ~edge in
            count o.affected o.activated;
            if o.affected > 0 then per_edge := o :: !per_edge))
  in
  { r with per_edge = List.rev !per_edge }

type node_outcome = {
  node : int;
  transit_affected : int;
  transit_activated : int;
  endpoint_lost : int;
}

let evaluate_node ?(spare_only = true) state ~node =
  let failed_edges =
    Array.to_list (Graph.out_links (Net_state.graph state) node)
    |> List.map Graph.edge_of_link
  in
  (* Connections terminating at the node are unrecoverable by any backup:
     they are counted apart and never compete for spare. *)
  let endpoint, transit =
    Net_state.primaries_crossing_edges state ~edges:failed_edges
    |> List.partition (fun (c : Net_state.conn) -> c.src = node || c.dst = node)
  in
  {
    node;
    transit_affected = List.length transit;
    transit_activated =
      activate_greedy ~spare_only state
        ~crosses:(fun p -> List.exists (Path.crosses_edge p) failed_edges)
        transit;
    endpoint_lost = List.length endpoint;
  }

let evaluate_nodes ?spare_only state =
  sweep (fun count ->
      for node = 0 to Graph.node_count (Net_state.graph state) - 1 do
        let o = evaluate_node ?spare_only state ~node in
        count o.transit_affected o.transit_activated
      done)

(* ---- correlated (SRLG / regional) failures ------------------------------- *)

let evaluate_edges ?(spare_only = true) state ~edges =
  let failed =
    Array.make (Graph.edge_count (Net_state.graph state)) false
  in
  List.iter (fun e -> failed.(e) <- true) edges;
  let victims = Net_state.primaries_crossing_edges state ~edges in
  ( List.length victims,
    activate_greedy ~spare_only state
      ~crosses:(fun p ->
        List.exists (fun l -> failed.(Graph.edge_of_link l)) (Path.links p))
      victims )

type pair_outcome = { edges : int * int; affected : int; activated : int }

let evaluate_edge_pair ?spare_only state ~edges:(e1, e2) =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ e1; e2 ] in
  { edges = (e1, e2); affected; activated }

let evaluate_double ?spare_only ?(samples = 200) ?(seed = 1) state =
  let edge_count = Graph.edge_count (Net_state.graph state) in
  if edge_count < 2 then invalid_arg "Failure_eval.evaluate_double: need >= 2 edges";
  let rng = Dr_rng.Splitmix64.create seed in
  sweep (fun count ->
      for _ = 1 to samples do
        let e1, e2 = Dr_rng.Dist.pick_distinct_pair rng edge_count in
        let affected, activated =
          evaluate_edges ?spare_only state ~edges:[ e1; e2 ]
        in
        count affected activated
      done)

type group_outcome = { group : int; affected : int; activated : int }

let evaluate_group ?spare_only state ~group =
  let srlg = Net_state.srlg state in
  let edges = Dr_resilience.Srlg.edges_of_group srlg group in
  let affected, activated = evaluate_edges ?spare_only state ~edges in
  { group; affected; activated }

let evaluate_srlg ?spare_only state =
  sweep (fun count ->
      for group = 0 to Dr_resilience.Srlg.group_count (Net_state.srlg state) - 1 do
        let o = evaluate_group ?spare_only state ~group in
        count o.affected o.activated
      done)

let evaluate_regional ?spare_only ?(samples = 200) ?(seed = 1) state ~radius =
  if radius <= 0.0 then
    invalid_arg "Failure_eval.evaluate_regional: radius must be positive";
  let graph = Net_state.graph state in
  match Graph.coords graph with
  | None -> invalid_arg "Failure_eval.evaluate_regional: graph has no coordinates"
  | Some coords ->
      let edge_count = Graph.edge_count graph in
      let midpoints =
        Array.init edge_count (fun e ->
            let u, v = Graph.edge_endpoints graph e in
            let ux, uy = coords.(u) and vx, vy = coords.(v) in
            ((ux +. vx) /. 2.0, (uy +. vy) /. 2.0))
      in
      let rng = Dr_rng.Splitmix64.create seed in
      sweep (fun count ->
          for _ = 1 to samples do
            let cx = Dr_rng.Splitmix64.float rng 1.0
            and cy = Dr_rng.Splitmix64.float rng 1.0 in
            let hit = ref [] in
            for e = edge_count - 1 downto 0 do
              let mx, my = midpoints.(e) in
              let dx = mx -. cx and dy = my -. cy in
              if (dx *. dx) +. (dy *. dy) <= radius *. radius then hit := e :: !hit
            done;
            let affected, activated = evaluate_edges ?spare_only state ~edges:!hit in
            count affected activated
          done)
