(* In-memory span recorder for the traced benchmark runs.

   Spans are recorded by the benchmark around its own calls into a layer:
   name (a [layer]), start, end, parent, minor and major words allocated
   while open, and a small integer tag (1 = the call's outcome was a
   rejection).  Each domain records into its own buffer, installed with
   [with_buffer]; the benchmark's loops call [span], which is a plain call
   when no buffer is installed.

   Times come from the monotonic clock in nanoseconds.  A span's self time
   is its duration minus the durations of its direct children. *)

type layer =
  | Root  (** the benchmark's own loop: its self time is unattributed *)
  | Routing  (** a link-state [route_fn] call *)
  | Flood  (** a bounded-flooding [route_fn] call *)
  | Admit  (** [Manager.apply] of a request *)
  | Release  (** [Manager.apply] / [Service.release_now] of a release *)
  | Batch  (** [Batch.admit] *)
  | Failure_eval  (** one fault-tolerance snapshot *)
  | What_if  (** [Service.what_if_admit] *)
  | Probe  (** [Service.what_if_fail_edge] *)
  | Audit  (** [check_invariants] + [check_routing_caches] *)
  | Append  (** [Persist.append] *)
  | Checkpoint  (** [Persist.checkpoint] *)
  | Recover  (** crash restart: [Manager.create] + [Persist.recover] + [resume] *)
  | Recovery  (** [Recovery.fail_edge_drtp] *)
  | Restore  (** [Net_state.restore_edge] *)
  | Drain  (** [Manager.drain_reprotect] *)
  | Engine  (** [Engine.run]: its self time is the event queue's *)

let layers =
  [| Root; Routing; Flood; Admit; Release; Batch; Failure_eval; What_if; Probe;
     Audit; Append; Checkpoint; Recover; Recovery; Restore; Drain; Engine |]

let index = function
  | Root -> 0
  | Routing -> 1
  | Flood -> 2
  | Admit -> 3
  | Release -> 4
  | Batch -> 5
  | Failure_eval -> 6
  | What_if -> 7
  | Probe -> 8
  | Audit -> 9
  | Append -> 10
  | Checkpoint -> 11
  | Recover -> 12
  | Recovery -> 13
  | Restore -> 14
  | Drain -> 15
  | Engine -> 16

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* Words allocated so far by this domain: in the minor heap, and directly
   in the major heap (major words less those promoted from the minor). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  (minor, major -. promoted)

type buffer = {
  mutable n : int;
  mutable layer : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable minor : float array;
  mutable major : float array;
  mutable tag : int array;
  mutable open_span : int;
}

let create_buffer () =
  let cap = 4096 in
  {
    n = 0;
    layer = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    minor = Array.make cap 0.0;
    major = Array.make cap 0.0;
    tag = Array.make cap 0;
    open_span = -1;
  }

let grow b =
  let cap = 2 * Array.length b.layer in
  let ext a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.layer <- ext b.layer 0;
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent 0;
  b.minor <- ext b.minor 0.0;
  b.major <- ext b.major 0.0;
  b.tag <- ext b.tag 0

let key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_buffer b f =
  Domain.DLS.set key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key None) f

let record b layer tag f =
  if b.n = Array.length b.layer then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.layer.(i) <- index layer;
  b.parent.(i) <- b.open_span;
  b.open_span <- i;
  let minor0, major0 = alloc_words () in
  b.start.(i) <- now_ns ();
  let close () =
    b.stop.(i) <- now_ns ();
    let minor1, major1 = alloc_words () in
    b.minor.(i) <- minor1 -. minor0;
    b.major.(i) <- major1 -. major0;
    b.open_span <- b.parent.(i)
  in
  match f () with
  | r ->
      close ();
      b.tag.(i) <- tag r;
      r
  | exception e ->
      close ();
      raise e

let no_tag _ = 0

(** Run [f] inside a span of [layer] when a buffer is installed on this
    domain; [tag] classifies the result (stored per span). *)
let span ?(tag = no_tag) layer f =
  match Domain.DLS.get key with None -> f () | Some b -> record b layer tag f

(** [route] with every call recorded as a [layer] span tagged 1 on
    rejection. *)
let wrap_route layer (route : Drtp.Routing.route_fn) : Drtp.Routing.route_fn =
 fun state ~src ~dst ~bw ->
  span layer
    ~tag:(function Ok _ -> 0 | Error _ -> 1)
    (fun () -> route state ~src ~dst ~bw)

(* ---- aggregation --------------------------------------------------------- *)

type stats = {
  calls : int;
  total_s : float;  (** summed durations (inclusive of children) *)
  self_s : float;
  words : float;  (** summed words allocated (inclusive) *)
  tagged : int;  (** spans with a nonzero tag *)
  durations : float array;  (** each span's duration, seconds, sorted *)
}

(** Per-layer statistics over every span in [buffers]. *)
let aggregate buffers =
  let nl = Array.length layers in
  let calls = Array.make nl 0 and total = Array.make nl 0 in
  let self = Array.make nl 0 and words = Array.make nl 0.0 in
  let tagged = Array.make nl 0 and durs = Array.make nl [] in
  List.iter
    (fun b ->
      let child = Array.make b.n 0 in
      for i = 0 to b.n - 1 do
        let p = b.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) + (b.stop.(i) - b.start.(i))
      done;
      for i = 0 to b.n - 1 do
        let l = b.layer.(i) and d = b.stop.(i) - b.start.(i) in
        calls.(l) <- calls.(l) + 1;
        total.(l) <- total.(l) + d;
        self.(l) <- self.(l) + d - child.(i);
        words.(l) <- words.(l) +. b.minor.(i) +. b.major.(i);
        if b.tag.(i) <> 0 then tagged.(l) <- tagged.(l) + 1;
        durs.(l) <- (float_of_int d *. 1e-9) :: durs.(l)
      done)
    buffers;
  fun layer ->
    let l = index layer in
    let d = Array.of_list durs.(l) in
    Array.sort compare d;
    {
      calls = calls.(l);
      total_s = float_of_int total.(l) *. 1e-9;
      self_s = float_of_int self.(l) *. 1e-9;
      words = words.(l);
      tagged = tagged.(l);
      durations = d;
    }

(** Nearest-rank quantile of a sorted array; 0 when empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let layer_name = function
  | Root -> "root"
  | Routing -> "routing"
  | Flood -> "bounded_flood"
  | Admit -> "manager.admit"
  | Release -> "manager.release"
  | Batch -> "batch"
  | Failure_eval -> "failure_eval"
  | What_if -> "service.what_if"
  | Probe -> "service.probe"
  | Audit -> "net_state.audit"
  | Append -> "persist.append"
  | Checkpoint -> "persist.checkpoint"
  | Recover -> "persist.recover"
  | Recovery -> "recovery"
  | Restore -> "net_state.restore"
  | Drain -> "manager.reprotect_drain"
  | Engine -> "engine"

(** Write every span of [buffers] as TSV (buffer, index, layer, parent,
    start ns, end ns, minor words, direct major words, tag). *)
let write_tsv path buffers =
  let oc = open_out path in
  output_string oc
    "buffer\tspan\tlayer\tparent\tstart_ns\tend_ns\tminor_words\tmajor_words\ttag\n";
  List.iteri
    (fun bi b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%.0f\t%.0f\t%d\n" bi i
          (layer_name layers.(b.layer.(i)))
          b.parent.(i) b.start.(i) b.stop.(i) b.minor.(i) b.major.(i) b.tag.(i)
      done)
    buffers;
  close_out oc
