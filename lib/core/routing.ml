module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Shortest_path = Dr_topo.Shortest_path
module Srlg = Dr_resilience.Srlg
module Tm = Dr_telemetry.Telemetry
module J = Dr_obs.Journal

(* Telemetry: route-computation timers (one per scheme) and the causes of
   infeasibility, both per candidate link and per request. *)
let t_find_primary = Tm.Timer.make "routing.find_primary"
let t_find_backup = Tm.Timer.make "routing.find_backup"
let t_route_plsr = Tm.Timer.make "routing.route.P-LSR"
let t_route_dlsr = Tm.Timer.make "routing.route.D-LSR"
let t_route_spf = Tm.Timer.make "routing.route.SPF"
let c_link_dead = Tm.Counter.make "routing.link.rejected.dead"
let c_link_no_bw = Tm.Counter.make "routing.link.rejected.bandwidth"
let c_accepted = Tm.Counter.make "routing.accepted"
let c_reject_no_primary = Tm.Counter.make "routing.reject.no_primary"
let c_reject_no_backup = Tm.Counter.make "routing.reject.no_backup"

type scheme = Plsr | Dlsr | Spf

let scheme_name = function Plsr -> "P-LSR" | Dlsr -> "D-LSR" | Spf -> "SPF"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "p-lsr" | "plsr" -> Ok Plsr
  | "d-lsr" | "dlsr" -> Ok Dlsr
  | "spf" -> Ok Spf
  | other -> Error (Printf.sprintf "unknown scheme %S (want p-lsr, d-lsr or spf)" other)

let epsilon = 1e-3
let q_constant = 1.0e6

let link_alive state l =
  not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l))

let find_primary state ~src ~dst ~bw =
  Tm.Timer.time t_find_primary (fun () ->
      let result =
        let resources = Net_state.resources state in
        let usable l =
          link_alive state l && Resources.primary_feasible resources ~link:l ~bw
        in
        Shortest_path.min_hop_path (Net_state.graph state) ~usable ~src ~dst ()
      in
      (match result with
      | Some p when !J.on ->
          J.record (J.Primary_chosen { src; dst; bw; links = Path.links p })
      | Some _ | None -> ());
      result)

type cost_parts = { q : float; conflict : float; eps : float }

let parts_total p = p.q +. p.conflict +. p.eps

type link_verdict =
  | Dead
  | No_bandwidth of { required : int }
  | Cost of cost_parts

(* The per-link cost decomposition every scheme's total is assembled from.
   [backup_link_cost_general] below sums the parts in exactly the order
   [parts_total] uses, so an explained row always matches the Dijkstra
   cost bit for bit. *)
let backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw =
  let resources = Net_state.resources state in
  let primary_edges = Path.edge_set primary in
  let primary_edge_list = Path.Link_set.elements primary_edges in
  let primary_links = Path.lset primary in
  (* Directed-link share counts over the earlier backups: a link two
     earlier members both use must host the new backup on top of BOTH
     reservations, so multiplicity matters (admission counts occurrences
     the same way). *)
  let earlier_share_count =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        List.iter
          (fun l ->
            Hashtbl.replace tbl l
              (1 + Option.value (Hashtbl.find_opt tbl l) ~default:0))
          (Path.links b))
      earlier_backups;
    tbl
  in
  let earlier_edges =
    List.fold_left
      (fun acc b -> Path.Link_set.union acc (Path.edge_set b))
      Path.Link_set.empty earlier_backups
  in
  (* Failure domains are SRLG groups: a link shares the primary's (or an
     earlier backup's) fate when its edge belongs to any group one of
     their edges belongs to.  With the singleton model this degenerates
     to plain edge membership, bit-identically — that branch is the
     pre-SRLG code verbatim. *)
  let srlg = Net_state.srlg state in
  let shares_primary, shares_earlier =
    if Srlg.is_singleton srlg then
      ( (fun e -> Path.Link_set.mem e primary_edges),
        fun e -> Path.Link_set.mem e earlier_edges )
    else
      let group_set edges =
        Path.Link_set.fold
          (fun e acc ->
            Array.fold_left
              (fun acc g -> Path.Link_set.add g acc)
              acc
              (Srlg.groups_of_edge_arr srlg e))
          edges Path.Link_set.empty
      in
      let primary_groups = group_set primary_edges
      and earlier_groups = group_set earlier_edges in
      let shares groups e =
        Array.exists
          (fun g -> Path.Link_set.mem g groups)
          (Srlg.groups_of_edge_arr srlg e)
      in
      (shares primary_groups, shares earlier_groups)
  in
  fun l ->
    (* A backup sharing a directed link with routes of its own connection
       must fit on top of their reservations there. *)
    let own_shares =
      (if Path.Link_set.mem l primary_links then 1 else 0)
      + Option.value (Hashtbl.find_opt earlier_share_count l) ~default:0
    in
    let required = bw * (1 + own_shares) in
    if not (link_alive state l) then Dead
    else if not (Resources.backup_feasible resources ~link:l ~bw:required) then
      No_bandwidth { required }
    else
      let q =
        (* The paper's large constant Q: sharing a failure domain with the
           primary is heavily penalised but not forbidden — a source whose
           only attachment edge carries the primary has no disjoint
           alternative, and the paper only requires *minimal* overlap.
           Subsequent backups get the same penalty on earlier backups'
           edges: a second backup matters exactly when the first cannot
           activate. *)
        let e = Graph.edge_of_link l in
        (if shares_primary e then q_constant else 0.0)
        +. if shares_earlier e then q_constant else 0.0
      in
      match scheme with
      | Spf -> Cost { q; conflict = 1.0; eps = 0.0 }
      | Plsr ->
          Cost
            {
              q;
              conflict = float_of_int (Net_state.aplv_norm state l);
              eps = epsilon;
            }
      | Dlsr ->
          Cost
            {
              q;
              conflict =
                float_of_int
                  (Net_state.conflict_count state ~link:l
                     ~edge_lset:primary_edge_list);
              eps = epsilon;
            }

let backup_link_verdict ?(earlier_backups = []) scheme state ~primary ~bw =
  backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw

let backup_link_cost_general scheme state ~primary ~earlier_backups ~bw =
  let verdict =
    backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw
  in
  fun l ->
    match verdict l with
    | Dead ->
        Tm.Counter.incr c_link_dead;
        infinity
    | No_bandwidth _ ->
        Tm.Counter.incr c_link_no_bw;
        infinity
    | Cost p -> parts_total p

let backup_link_cost scheme state ~primary ~bw =
  backup_link_cost_general scheme state ~primary ~earlier_backups:[] ~bw

(* --- workspace fast path -------------------------------------------------- *)

(* Per-domain routing workspace: epoch-stamped membership arrays replacing
   the per-query [Path.Link_set] values of {!backup_link_verdict_general}.
   A query marks its primary/earlier links and edges once (stamping slots
   with the query's epoch), then every Dijkstra relaxation answers "is
   this link on the primary?" with one array read instead of a balanced
   tree descent.  The primary's edge LSET is also staged into a flat array
   so D-LSR's conflict term is a tight loop over {!Net_state}'s dense
   conflict-count mirror.  One workspace per domain (Domain.DLS) keeps
   [--jobs N] pools race-free; the cost closures built on it are consumed
   within a single search, before any other query reuses the epoch. *)
module Ws = struct
  type t = {
    mutable prim_link : int array; (* per link: epoch when on the primary *)
    mutable earl_link : int array; (* per link: epoch when on an earlier backup *)
    mutable earl_n : int array; (* per link: earlier backups using it (valid
                                   when earl_link carries the epoch) *)
    mutable prim_edge : int array; (* per edge: epoch when under the primary *)
    mutable earl_edge : int array; (* per edge: epoch when under an earlier backup *)
    mutable prim_group : int array; (* per SRLG: epoch when under the primary *)
    mutable earl_group : int array; (* per SRLG: epoch when under an earlier backup *)
    mutable pedges : int array; (* the primary's edge LSET, staged *)
    mutable pedge_n : int;
    mutable epoch : int;
  }

  let create () =
    {
      prim_link = [||];
      earl_link = [||];
      earl_n = [||];
      prim_edge = [||];
      earl_edge = [||];
      prim_group = [||];
      earl_group = [||];
      pedges = [||];
      pedge_n = 0;
      epoch = 0;
    }

  let key = Domain.DLS.new_key create

  let get ?(groups = 0) ~links ~edges () =
    let ws = Domain.DLS.get key in
    if Array.length ws.prim_link < links then begin
      ws.prim_link <- Array.make links 0;
      ws.earl_link <- Array.make links 0;
      ws.earl_n <- Array.make links 0
    end;
    if Array.length ws.prim_edge < edges then begin
      ws.prim_edge <- Array.make edges 0;
      ws.earl_edge <- Array.make edges 0;
      ws.pedges <- Array.make edges 0
    end;
    if Array.length ws.prim_group < groups then begin
      ws.prim_group <- Array.make groups 0;
      ws.earl_group <- Array.make groups 0
    end;
    ws.epoch <- ws.epoch + 1;
    ws
end

(* Allocation-free twin of {!backup_link_cost_general}.  Chases the same
   decomposition — [q +. conflict +. eps] in {!parts_total}'s association
   order, with the conflict term read from {!Net_state}'s incremental
   caches — so its finite values are bit-identical to the public cost
   (asserted by the differential harness against {!Routing_reference}). *)
let fast_backup_link_cost scheme state ~primary ~earlier_backups ~bw =
  let graph = Net_state.graph state in
  let resources = Net_state.resources state in
  let srlg = Net_state.srlg state in
  let singleton = Srlg.is_singleton srlg in
  let ws =
    Ws.get
      ~groups:(if singleton then 0 else Srlg.group_count srlg)
      ~links:(Graph.link_count graph) ~edges:(Graph.edge_count graph) ()
  in
  let ep = ws.Ws.epoch in
  let prim_link = ws.Ws.prim_link
  and earl_link = ws.Ws.earl_link
  and earl_n = ws.Ws.earl_n
  and prim_edge = ws.Ws.prim_edge
  and earl_edge = ws.Ws.earl_edge
  and prim_group = ws.Ws.prim_group
  and earl_group = ws.Ws.earl_group
  and pedges = ws.Ws.pedges in
  List.iter (fun l -> prim_link.(l) <- ep) (Path.links primary);
  let n = ref 0 in
  Path.Link_set.iter
    (fun e ->
      pedges.(!n) <- e;
      incr n;
      prim_edge.(e) <- ep;
      if not singleton then
        Array.iter
          (fun g -> prim_group.(g) <- ep)
          (Srlg.groups_of_edge_arr srlg e))
    (Path.edge_set primary);
  ws.Ws.pedge_n <- !n;
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          if earl_link.(l) = ep then earl_n.(l) <- earl_n.(l) + 1
          else begin
            earl_link.(l) <- ep;
            earl_n.(l) <- 1
          end)
        (Path.links b);
      Path.Link_set.iter
        (fun e ->
          earl_edge.(e) <- ep;
          if not singleton then
            Array.iter
              (fun g -> earl_group.(g) <- ep)
              (Srlg.groups_of_edge_arr srlg e))
        (Path.edge_set b))
    earlier_backups;
  let pedge_n = ws.Ws.pedge_n in
  fun l ->
    let own_shares =
      (if prim_link.(l) = ep then 1 else 0)
      + if earl_link.(l) = ep then earl_n.(l) else 0
    in
    let required = bw * (1 + own_shares) in
    if not (link_alive state l) then begin
      Tm.Counter.incr c_link_dead;
      infinity
    end
    else if not (Resources.backup_feasible resources ~link:l ~bw:required) then begin
      Tm.Counter.incr c_link_no_bw;
      infinity
    end
    else
      let e = Graph.edge_of_link l in
      let q =
        if singleton then
          (if prim_edge.(e) = ep then q_constant else 0.0)
          +. if earl_edge.(e) = ep then q_constant else 0.0
        else
          (* SRLG generalisation: the link shares a failure domain when any
             group owning its edge is stamped.  Kept as a separate branch
             so the singleton hot path above stays the pre-SRLG code
             verbatim (and bit-identical). *)
          let owners = Srlg.groups_of_edge_arr srlg e in
          (if Array.exists (fun g -> prim_group.(g) = ep) owners then
             q_constant
           else 0.0)
          +.
          if Array.exists (fun g -> earl_group.(g) = ep) owners then q_constant
          else 0.0
      in
      match scheme with
      | Spf -> q +. 1.0 +. 0.0
      | Plsr -> q +. float_of_int (Net_state.aplv_norm state l) +. epsilon
      | Dlsr ->
          q
          +. float_of_int
               (Net_state.conflict_count_arr state ~link:l ~edges:pedges
                  ~n:pedge_n)
          +. epsilon

(* Journal the chosen backup with its per-link cost decomposition.  The
   network state is unchanged during route computation, so re-deriving the
   verdicts here reproduces exactly the costs the search minimised. *)
let journal_backup_chosen scheme state ~primary ~earlier_backups ~bw path =
  let verdict =
    backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw
  in
  let links =
    List.map
      (fun l ->
        match verdict l with
        | Cost p ->
            { J.lc_link = l; lc_q = p.q; lc_conflict = p.conflict; lc_eps = p.eps }
        | Dead | No_bandwidth _ ->
            (* Unreachable: the search only returns feasible links. *)
            { J.lc_link = l; lc_q = infinity; lc_conflict = 0.0; lc_eps = 0.0 })
      (Path.links path)
  in
  J.record
    (J.Backup_chosen
       {
         src = Path.src primary;
         dst = Path.dst primary;
         bw;
         scheme = scheme_name scheme;
         rank = List.length earlier_backups;
         links;
       })

let find_backup_general ?max_hops scheme state ~primary ~earlier_backups ~bw =
  Tm.Timer.time t_find_backup (fun () ->
      let cost =
        fast_backup_link_cost scheme state ~primary ~earlier_backups ~bw
      in
      let graph = Net_state.graph state in
      let src = Path.src primary and dst = Path.dst primary in
      let found =
        match max_hops with
        | None -> (
            match Shortest_path.dijkstra_path graph ~cost ~src ~dst with
            | None -> None
            | Some (_, p) -> Some p)
        | Some h -> (
            (* QoS-bounded backup (paper §2: a backup longer than the delay
               budget allows is useless): cheapest conflict cost within the hop
               budget. *)
            match Dr_topo.Constrained_path.cheapest_within_hops graph ~cost ~src
                    ~dst ~max_hops:h
            with
            | None -> None
            | Some (_, p) -> Some p)
      in
      (match found with
      | Some p when !J.on ->
          journal_backup_chosen scheme state ~primary ~earlier_backups ~bw p
      | Some _ | None -> ());
      found)

let find_backup ?max_hops scheme state ~primary ~bw =
  find_backup_general ?max_hops scheme state ~primary ~earlier_backups:[] ~bw

let collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing =
  let rec collect earlier fresh k =
    if k = 0 then List.rev fresh
    else
      match
        find_backup_general ?max_hops scheme state ~primary
          ~earlier_backups:earlier ~bw
      with
      | None -> List.rev fresh
      | Some b ->
          (* A repeat of the primary or of an already-chosen route adds no
             protection; the search is exhausted. *)
          if
            Path.links b = Path.links primary
            || List.exists (fun b' -> Path.links b' = Path.links b) earlier
          then List.rev fresh
          else collect (b :: earlier) (b :: fresh) (k - 1)
  in
  collect (List.rev existing) [] count

let find_backups ?max_hops scheme state ~primary ~bw ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing:[]

let additional_backups ?max_hops scheme state ~primary ~bw ~existing ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing

(* ---- k-resilient backup chains ------------------------------------------- *)

type chain_member = { cm_path : Path.t; cm_rank : int; cm_disjoint : bool }

(* Disjointness flags for a chain: member i is disjoint when it shares no
   failure group with the primary or any earlier member.  (With singleton
   groups that's plain edge-disjointness.)  Under a non-singleton model
   the flag marks exactly the strict-pass hits of the search below: a
   strict hit avoids every banned group, and a fallback member shares
   one, since any fully disjoint route would have survived the strict
   pass. *)
let chain_disjoint_flags srlg ~primary paths =
  let seen = ref Path.Link_set.empty in
  let add p =
    Path.Link_set.iter
      (fun e ->
        Array.iter
          (fun g -> seen := Path.Link_set.add g !seen)
          (Srlg.groups_of_edge_arr srlg e))
      (Path.edge_set p)
  in
  add primary;
  List.map
    (fun p ->
      let disjoint =
        Path.Link_set.for_all
          (fun e ->
            Array.for_all
              (fun g -> not (Path.Link_set.mem g !seen))
              (Srlg.groups_of_edge_arr srlg e))
          (Path.edge_set p)
      in
      add p;
      (p, disjoint))
    paths

let additional_chain_members ?max_hops scheme state ~primary ~bw ~existing
    ~count =
  let srlg = Net_state.srlg state in
  if Srlg.is_singleton srlg then
    (* Bit-identity by construction: with singleton groups the chain is
       exactly the multi-backup selection the soft Q-penalised search
       produces (the k=1 golden-fixture gate depends on this). *)
    collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing
  else begin
    let graph = Net_state.graph state in
    let src = Path.src primary and dst = Path.dst primary in
    let banned = Array.make (Srlg.group_count srlg) false in
    let ban p =
      Path.Link_set.iter
        (fun e ->
          Array.iter
            (fun g -> banned.(g) <- true)
            (Srlg.groups_of_edge_arr srlg e))
        (Path.edge_set p)
    in
    ban primary;
    List.iter ban existing;
    (* Strict pass: links whose edge lies in any banned group are pruned
       outright, so a hit is fully SRLG-disjoint from the primary and
       from every earlier chain member. *)
    let find_strict earlier =
      Tm.Timer.time t_find_backup (fun () ->
          let base =
            fast_backup_link_cost scheme state ~primary
              ~earlier_backups:earlier ~bw
          in
          let cost l =
            if
              Array.exists
                (fun g -> banned.(g))
                (Srlg.groups_of_edge_arr srlg (Graph.edge_of_link l))
            then infinity
            else base l
          in
          match max_hops with
          | None -> (
              match Shortest_path.dijkstra_path graph ~cost ~src ~dst with
              | None -> None
              | Some (_, p) -> Some p)
          | Some h -> (
              match
                Dr_topo.Constrained_path.cheapest_within_hops graph ~cost ~src
                  ~dst ~max_hops:h
              with
              | None -> None
              | Some (_, p) -> Some p))
    in
    let rec collect earlier fresh k =
      if k = 0 then List.rev fresh
      else
        match find_strict earlier with
        | Some p ->
            (* A strict hit can never duplicate the primary or an earlier
               member — their edges' groups are banned. *)
            if !J.on then
              journal_backup_chosen scheme state ~primary
                ~earlier_backups:earlier ~bw p;
            ban p;
            collect (p :: earlier) (p :: fresh) (k - 1)
        | None -> (
            (* Graceful fallback when disjointness is infeasible: the soft
               Q-penalised search (the paper requires *minimal*, not zero,
               overlap). *)
            match
              find_backup_general ?max_hops scheme state ~primary
                ~earlier_backups:earlier ~bw
            with
            | None -> List.rev fresh
            | Some p ->
                if
                  Path.links p = Path.links primary
                  || List.exists (fun b -> Path.links b = Path.links p) earlier
                then List.rev fresh
                else begin
                  ban p;
                  collect (p :: earlier) (p :: fresh) (k - 1)
                end)
    in
    collect (List.rev existing) [] count
  end

(* The chain's member paths.  The [chain-built] record's disjointness
   flags are computed only when the journal is on. *)
let backup_chain ?max_hops scheme state ~primary ~bw ~k =
  let paths =
    additional_chain_members ?max_hops scheme state ~primary ~bw ~existing:[]
      ~count:k
  in
  if paths <> [] && !J.on then
    J.record
      (J.Chain_built
         {
           src = Path.src primary;
           dst = Path.dst primary;
           members = List.length paths;
           disjoint =
             chain_disjoint_flags (Net_state.srlg state) ~primary paths
             |> List.filter snd |> List.length;
         });
  paths

let find_backup_chain ?max_hops scheme state ~primary ~bw ~k =
  backup_chain ?max_hops scheme state ~primary ~bw ~k
  |> chain_disjoint_flags (Net_state.srlg state) ~primary
  |> List.mapi (fun i (p, disjoint) ->
         { cm_path = p; cm_rank = i; cm_disjoint = disjoint })

type reject_reason = No_primary | No_backup

let reject_reason_name = function
  | No_primary -> "no-primary"
  | No_backup -> "no-backup"

type route_pair = { primary : Path.t; backups : Path.t list }

type route_fn =
  Net_state.t -> src:int -> dst:int -> bw:int -> (route_pair, reject_reason) result

let route_timer = function
  | Plsr -> t_route_plsr
  | Dlsr -> t_route_dlsr
  | Spf -> t_route_spf

let count_route_result = function
  | Ok _ -> Tm.Counter.incr c_accepted
  | Error No_primary -> Tm.Counter.incr c_reject_no_primary
  | Error No_backup -> Tm.Counter.incr c_reject_no_backup

let link_state_route_fn ?(backup_count = 1) ?backup_hop_slack scheme ~with_backup
    : route_fn =
 fun state ~src ~dst ~bw ->
  let result =
    Tm.Timer.time (route_timer scheme) (fun () ->
        match find_primary state ~src ~dst ~bw with
        | None -> Error No_primary
        | Some primary ->
            if not with_backup then Ok { primary; backups = [] }
            else (
              let max_hops =
                Option.map
                  (fun slack -> Path.hops primary + slack)
                  backup_hop_slack
              in
              match
                find_backups ?max_hops scheme state ~primary ~bw
                  ~count:backup_count
              with
              | [] -> Error No_backup
              | backups -> Ok { primary; backups }))
  in
  count_route_result result;
  result

let chain_route_fn ?(k = 1) ?backup_hop_slack scheme : route_fn =
 fun state ~src ~dst ~bw ->
  let result =
    Tm.Timer.time (route_timer scheme) (fun () ->
        match find_primary state ~src ~dst ~bw with
        | None -> Error No_primary
        | Some primary -> (
            let max_hops =
              Option.map
                (fun slack -> Path.hops primary + slack)
                backup_hop_slack
            in
            match backup_chain ?max_hops scheme state ~primary ~bw ~k with
            | [] -> Error No_backup
            | backups -> Ok { primary; backups }))
  in
  count_route_result result;
  result
