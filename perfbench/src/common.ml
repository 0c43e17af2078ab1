(* Shared plumbing: run options, the experiment configuration every workload
   derives from the seed, time-boxed repetition, and the result record. *)

module Config = Dr_exp.Config

type size = Full | Tiny

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  fixture : string;  (** seed-42 claims fixture, relative to the checkout *)
  tamper : bool;  (** corrupt every expected value (self-test only) *)
  work_dir : string;  (** WAL, checkpoint and span files *)
}

(* The topology is fixed (the Waxman graph of topology seed 42); the seed
   drives the traffic, with the same mapping as [drtp_sim --seed], so seed
   42 reproduces [drtp_sim claims --quick --seed 42]. *)
let config o =
  let cfg = Config.default in
  let cfg =
    {
      cfg with
      Config.workload_seed = o.seed * 101;
      warmup = 2400.0;
      horizon = 4800.0;
      sample_every = 300.0;
    }
  in
  match o.size with
  | Full -> cfg
  | Tiny -> { cfg with Config.warmup = 300.0; horizon = 600.0; sample_every = 150.0 }

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type result = {
  checks : (string * bool) list;  (** named correctness checks *)
  attempted : int;
  failed : int;
  metrics : metric list;
      (** the end-to-end metrics (untraced) or the per-layer ledger (traced) *)
  extra : metric list;
      (** workload-specific end-to-end figures, printed but not in the
          result: every result carries the same metric set *)
  spans : Tracer.buffer list;  (** the last traced pass's spans *)
}

(** Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = Tracer.now_ns () in
  let r = f () in
  (Tracer.seconds_between t0 (Tracer.now_ns ()), r)

let last_opt l = match List.rev l with [] -> None | x :: _ -> Some x

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(** Set-ups timed per run: set-up is short, so its median is taken over
    many.  One per unit, then more after the last unit until there are at
    least [setup_reps] and they took [setup_seconds] in all (at most
    [setup_cap]), so a set-up of a millisecond is timed hundreds of times. *)
let setup_reps = 15
let setup_seconds = 0.5
let setup_cap = 400

(** Run units of work: at least [min_units], and while the elapsed time plus
    half a typical unit stays under [seconds].  Unit [k] gets a fresh,
    timed [setup k], released with [dispose] after the unit; extra set-ups
    ([setup (-1)]) are timed at the end, as [setup_reps] says.
    Returns the median set-up time and the number of set-ups, the peak heap once the first unit is
    done (the workload's peak in a fresh process, not the largest over the
    repeats), and the units' results in order. *)
let time_boxed ?(min_units = 1) ?(dispose = ignore) ~seconds ~setup unit_of_work =
  let setup_times = ref [] in
  let timed_setup k =
    let dt, x = timed (fun () -> setup k) in
    setup_times := dt :: !setup_times;
    x
  in
  let t0 = Tracer.now_ns () in
  let heap_mb = ref 0.0 in
  let rec go acc k =
    let x = timed_setup k in
    let u0 = Tracer.now_ns () and c0 = Unix.times () in
    let r = unit_of_work k x in
    let c1 = Unix.times () and now = Tracer.now_ns () in
    dispose x;
    if k = 0 then heap_mb := peak_heap_mb ();
    Printf.eprintf "perfbench: unit %d took %.4f s (cpu %.3f s)\n%!" k
      (Tracer.seconds_between u0 now)
      (c1.Unix.tms_utime +. c1.Unix.tms_stime -. c0.Unix.tms_utime -. c0.Unix.tms_stime);
    let elapsed = Tracer.seconds_between t0 now in
    if k + 1 < min_units || elapsed +. (elapsed /. float_of_int (2 * (k + 1))) < seconds
    then go (r :: acc) (k + 1)
    else List.rev (r :: acc)
  in
  let results = go [] 0 in
  let enough () =
    let n = List.length !setup_times in
    n >= setup_cap
    || (n >= setup_reps && List.fold_left ( +. ) 0.0 !setup_times >= setup_seconds)
  in
  while not (enough ()) do
    dispose (timed_setup (-1))
  done;
  (Tracer.median !setup_times, List.length !setup_times, !heap_mb, results)

let tamper_string s =
  if s = "" then "x"
  else String.mapi (fun i c -> if i = 0 then (if c = 'a' then 'b' else 'a') else c) s

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Hex float rendering: exact, so string equality is bit equality. *)
let hx = Printf.sprintf "%h"

(** The three end-to-end metrics every workload reports. *)
let end_to_end ~setup_s:(setup_s, setups) ~rates ~heap_mb =
  [
    metric "setup_s" "s" setup_s ~samples:setups;
    metric "req_per_s" "1/s" (Tracer.median rates) ~samples:(List.length rates);
    metric "peak_heap_mb" "MiB" heap_mb;
  ]

(** A workload's result: [requests] decided plus one operation per check
    attempted; [failed_ops] plus the failed checks failed. *)
let result ~checks ~requests ~failed_ops ~metrics ~extra ~spans =
  {
    checks;
    attempted = requests + List.length checks;
    failed = failed_ops + List.length (List.filter (fun (_, ok) -> not ok) checks);
    metrics;
    extra;
    spans;
  }
