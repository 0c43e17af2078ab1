module Tm = Dr_telemetry.Telemetry

(* Every test leaves the global telemetry state as it found it: disabled,
   zeroed, wall-clock timestamps. *)
let scoped f =
  Tm.reset ();
  Tm.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Tm.set_enabled false;
      Tm.set_clock Unix.gettimeofday;
      Tm.reset ())

let test_counter () =
  scoped @@ fun () ->
  let c = Tm.Counter.make "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Tm.Counter.value c);
  Tm.Counter.incr c;
  Tm.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Tm.Counter.value c);
  Tm.set_enabled false;
  Tm.Counter.incr c;
  Tm.Counter.add c 100;
  Alcotest.(check int) "no-op while disabled" 5 (Tm.Counter.value c);
  Tm.set_enabled true;
  let c' = Tm.Counter.make "test.counter" in
  Tm.Counter.incr c';
  Alcotest.(check int) "same name, same counter" 6 (Tm.Counter.value c)

let test_gauge () =
  scoped @@ fun () ->
  let g = Tm.Gauge.make "test.gauge" in
  Tm.Gauge.set g 3.0;
  Tm.Gauge.set g 7.0;
  Tm.Gauge.set g 2.0;
  Alcotest.(check (float 0.0)) "last value" 2.0 (Tm.Gauge.value g);
  Alcotest.(check (float 0.0)) "high-water mark" 7.0 (Tm.Gauge.max_seen g);
  Tm.reset ();
  Alcotest.(check (float 0.0)) "reset zeroes value" 0.0 (Tm.Gauge.value g);
  Alcotest.(check bool) "reset clears high-water" true
    (Tm.Gauge.max_seen g = neg_infinity)

let test_timer () =
  scoped @@ fun () ->
  let t = Tm.Timer.make "test.timer" in
  Tm.Timer.record t 0.5;
  Tm.Timer.record t 1.5;
  Alcotest.(check int) "count" 2 (Tm.Timer.count t);
  Alcotest.(check (float 1e-9)) "total" 2.0 (Tm.Timer.total_s t);
  Alcotest.(check (float 1e-9)) "summary mean" 1.0
    (Dr_stats.Summary.mean (Tm.Timer.summary t))

let test_timer_time () =
  scoped @@ fun () ->
  (* Drive a fake clock so recorded durations are exact. *)
  let now = ref 100.0 in
  Tm.set_clock (fun () -> !now);
  let t = Tm.Timer.make "test.timer.time" in
  let r =
    Tm.Timer.time t (fun () ->
        now := !now +. 0.25;
        42)
  in
  Alcotest.(check int) "thunk result returned" 42 r;
  Alcotest.(check (float 1e-9)) "duration recorded" 0.25 (Tm.Timer.total_s t);
  (* Exceptions propagate and the duration is still recorded. *)
  (try
     Tm.Timer.time t (fun () ->
         now := !now +. 1.0;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "count includes raising thunk" 2 (Tm.Timer.count t);
  Alcotest.(check (float 1e-9)) "raising duration recorded" 1.25
    (Tm.Timer.total_s t);
  Tm.set_enabled false;
  let r' = Tm.Timer.time t (fun () -> 7) in
  Alcotest.(check int) "disabled: thunk still runs" 7 r';
  Alcotest.(check int) "disabled: nothing recorded" 2 (Tm.Timer.count t)

(* The load-bearing property: switching telemetry on must not perturb a
   measured run in any way.  The instrumentation only observes — identical
   inputs must give bit-identical measurements. *)
let prop_measurements_unaffected =
  let module Config = Dr_exp.Config in
  let module Runner = Dr_exp.Runner in
  let cfg =
    {
      Config.default with
      Config.warmup = 600.0;
      horizon = 1200.0;
      sample_every = 300.0;
      lifetime_lo = 300.0;
      lifetime_hi = 600.0;
    }
  in
  let graph = lazy (Config.make_graph cfg ~avg_degree:3.0) in
  let gen =
    QCheck2.Gen.pair
      (QCheck2.Gen.oneofl
         [
           Runner.Lsr Drtp.Routing.Dlsr;
           Runner.Lsr Drtp.Routing.Plsr;
           Runner.Bf Dr_flood.Bounded_flood.default_config;
         ])
      (QCheck2.Gen.oneofl [ 0.2; 0.4 ])
  in
  QCheck2.Test.make ~count:4 ~name:"telemetry on/off leaves measurements intact"
    gen (fun (scheme, lambda) ->
      let graph = Lazy.force graph in
      let scenario = Config.make_scenario cfg Config.UT ~lambda in
      let run () = Runner.run cfg ~graph ~scenario ~scheme in
      Tm.set_enabled false;
      let off = run () in
      let on =
        Fun.protect
          ~finally:(fun () ->
            Tm.set_enabled false;
            Tm.reset ())
          (fun () ->
            Tm.reset ();
            Tm.set_enabled true;
            run ())
      in
      compare off on = 0)

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter;
        Alcotest.test_case "gauge high-water" `Quick test_gauge;
        Alcotest.test_case "timer record" `Quick test_timer;
        Alcotest.test_case "timer time + exceptions" `Quick test_timer_time;
        QCheck_alcotest.to_alcotest prop_measurements_unaffected;
      ] );
  ]
