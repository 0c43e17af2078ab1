module Summary = Dr_stats.Summary
module Histogram = Dr_stats.Histogram

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* Domain-safety: worker domains (the dr_parallel pool) update metrics
   concurrently with the coordinator.  A single lock serialises every
   mutation; it is only ever taken behind the [!on] check, so the disabled
   fast path stays a load and a branch. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let clock = ref Unix.gettimeofday
let set_clock f = clock := f

(* ---- registry ----------------------------------------------------------- *)

type counter = { c_name : string; mutable c_value : int; mutable c_touched : bool }

type gauge = {
  g_name : string;
  mutable g_value : float;
  mutable g_max : float;
  mutable g_touched : bool;
}

type timer = {
  t_name : string;
  mutable t_summary : Summary.t;
  t_hist_spec : (float * float * int) option;
  mutable t_hist : Histogram.t option;
}

(* One global registry per metric kind.  Metrics are created at
   module-initialisation time in the instrumented libraries, so the tables
   stay small; lookups only happen at creation. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

let fresh_hist = Option.map (fun (lo, hi, bins) -> Histogram.create ~lo ~hi ~bins)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ c ->
      c.c_value <- 0;
      c.c_touched <- false)
    counters;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- 0.0;
      g.g_max <- neg_infinity;
      g.g_touched <- false)
    gauges;
  Hashtbl.iter
    (fun _ t ->
      t.t_summary <- Summary.create ();
      t.t_hist <- fresh_hist t.t_hist_spec)
    timers

module Counter = struct
  type t = counter

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_value = 0; c_touched = false } in
        Hashtbl.add counters name c;
        c

  let incr c =
    if !on then
      locked @@ fun () ->
      c.c_value <- c.c_value + 1;
      c.c_touched <- true

  let add c n =
    if !on then
      locked @@ fun () ->
      c.c_value <- c.c_value + n;
      c.c_touched <- true

  let value c = c.c_value
end

module Gauge = struct
  type t = gauge

  let make name =
    locked @@ fun () ->
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
        let g =
          { g_name = name; g_value = 0.0; g_max = neg_infinity; g_touched = false }
        in
        Hashtbl.add gauges name g;
        g

  let set g v =
    if !on then
      locked @@ fun () ->
      g.g_value <- v;
      if v > g.g_max then g.g_max <- v;
      g.g_touched <- true

  let value g = g.g_value
  let max_seen g = g.g_max
end

module Timer = struct
  type t = timer

  let make ?hist name =
    locked @@ fun () ->
    match Hashtbl.find_opt timers name with
    | Some t -> t
    | None ->
        let t =
          {
            t_name = name;
            t_summary = Summary.create ();
            t_hist_spec = hist;
            t_hist = fresh_hist hist;
          }
        in
        Hashtbl.add timers name t;
        t

  let record t dur =
    if !on then
      locked @@ fun () ->
      Summary.add t.t_summary dur;
      match t.t_hist with None -> () | Some h -> Histogram.add h dur

  let time t f =
    if not !on then f ()
    else begin
      let t0 = !clock () in
      match f () with
      | v ->
          record t (!clock () -. t0);
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          record t (!clock () -. t0);
          Printexc.raise_with_backtrace e bt
    end

  let count t = Summary.count t.t_summary
  let total_s t = Summary.mean t.t_summary *. float_of_int (Summary.count t.t_summary)
  let summary t = t.t_summary
end

(* ---- snapshots ---------------------------------------------------------- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let touched_counters () =
  List.filter (fun c -> c.c_touched) (sorted_bindings counters)
  |> List.sort (fun a b -> compare a.c_name b.c_name)

let touched_gauges () =
  List.filter (fun g -> g.g_touched) (sorted_bindings gauges)
  |> List.sort (fun a b -> compare a.g_name b.g_name)

let touched_timers () =
  List.filter (fun t -> Summary.count t.t_summary > 0) (sorted_bindings timers)
  |> List.sort (fun a b -> compare a.t_name b.t_name)

(* ---- GC / memory high-water --------------------------------------------- *)

(* Registered eagerly (registration is cheap and the table omits untouched
   metrics); sampled only on demand — [Gc.quick_stat] reads no heap census
   so a per-run sample costs nothing measurable. *)
let g_gc_minor_words = Gauge.make "gc.minor_words"
let g_gc_major_words = Gauge.make "gc.major_words"
let g_gc_promoted_words = Gauge.make "gc.promoted_words"
let g_gc_heap_words = Gauge.make "gc.heap_words"
let g_gc_top_heap_words = Gauge.make "gc.top_heap_words"
let g_gc_major_collections = Gauge.make "gc.major_collections"

let observe_gc () =
  if !on then begin
    let s = Gc.quick_stat () in
    Gauge.set g_gc_minor_words s.Gc.minor_words;
    Gauge.set g_gc_major_words s.Gc.major_words;
    Gauge.set g_gc_promoted_words s.Gc.promoted_words;
    Gauge.set g_gc_heap_words (float_of_int s.Gc.heap_words);
    Gauge.set g_gc_top_heap_words (float_of_int s.Gc.top_heap_words);
    Gauge.set g_gc_major_collections (float_of_int s.Gc.major_collections)
  end

(* ---- end-of-run summary ------------------------------------------------- *)

let pp_time ppf seconds =
  if Float.is_nan seconds then Format.fprintf ppf "-"
  else if seconds < 1e-6 then Format.fprintf ppf "%.0fns" (seconds *. 1e9)
  else if seconds < 1e-3 then Format.fprintf ppf "%.2fus" (seconds *. 1e6)
  else if seconds < 1.0 then Format.fprintf ppf "%.2fms" (seconds *. 1e3)
  else Format.fprintf ppf "%.3fs" seconds

let pp_summary ppf () =
  let cs = touched_counters () and gs = touched_gauges () and ts = touched_timers () in
  Format.fprintf ppf "@[<v># Telemetry summary@,";
  if cs = [] && gs = [] && ts = [] then
    Format.fprintf ppf "(no metrics recorded)@,"
  else begin
    if cs <> [] then begin
      Format.fprintf ppf "@,%-44s %12s@," "counter" "value";
      List.iter
        (fun c -> Format.fprintf ppf "%-44s %12d@," c.c_name c.c_value)
        cs
    end;
    if gs <> [] then begin
      Format.fprintf ppf "@,%-44s %12s %12s@," "gauge" "last" "max";
      List.iter
        (fun g -> Format.fprintf ppf "%-44s %12.1f %12.1f@," g.g_name g.g_value g.g_max)
        gs
    end;
    if ts <> [] then begin
      Format.fprintf ppf "@,%-36s %9s %9s %9s %9s %9s@," "timer" "count" "total"
        "mean" "min" "max";
      List.iter
        (fun t ->
          let s = t.t_summary in
          let count = Summary.count s in
          let tm v = Format.asprintf "%a" pp_time v in
          Format.fprintf ppf "%-36s %9d %9s %9s %9s %9s@," t.t_name count
            (tm (Summary.mean s *. float_of_int count))
            (tm (Summary.mean s))
            (tm (Summary.min_value s))
            (tm (Summary.max_value s)))
        ts;
      List.iter
        (fun t ->
          match t.t_hist with
          | Some h when Histogram.count h > 0 ->
              Format.fprintf ppf "@,%s (seconds):@,%a@," t.t_name Histogram.pp h
          | Some _ | None -> ())
        ts
    end
  end;
  Format.fprintf ppf "@]"
