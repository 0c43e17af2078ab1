(* Benchmark entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--size full|tiny] [--fixture FILE] [--tamper] [--work-dir DIR]

   Runs one workload in this process, prints one ledger line per metric
   (name, value, unit, sample count) and per correctness check, then, as
   the last line, the JSON result.  Exits 1 when a check fails. *)

open Common

let workloads =
  [
    ("paper-sweep", W_sweep.run);
    ("serve-whatif", W_serve.run_whatif);
    ("serve-durable", W_serve.run_durable);
    ("recovery-churn", W_churn.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--fixture FILE] [--tamper] [--work-dir DIR]";
  exit 2

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: tl -> go { o with workload = v } tl
    | "--seed" :: v :: tl -> go { o with seed = int_of_string v } tl
    | "--seconds" :: v :: tl -> go { o with seconds = float_of_string v } tl
    | "--trace" :: ("0" | "1" as v) :: tl -> go { o with trace = v = "1" } tl
    | "--size" :: "tiny" :: tl -> go { o with size = Tiny } tl
    | "--size" :: "full" :: tl -> go { o with size = Full } tl
    | "--fixture" :: v :: tl -> go { o with fixture = v } tl
    | "--tamper" :: tl -> go { o with tamper = true } tl
    | "--work-dir" :: v :: tl -> go { o with work_dir = v } tl
    | _ -> usage ()
  in
  let defaults =
    {
      workload = "";
      seed = 42;
      seconds = 10.0;
      trace = false;
      size = Full;
      fixture = "test/claims_seed42.json";
      tamper = false;
      work_dir = ".perfbench_work";
    }
  in
  try go defaults (List.tl (Array.to_list argv)) with Failure _ -> usage ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  let o = parse Sys.argv in
  let run =
    match List.assoc_opt o.workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" o.workload;
        exit 2
  in
  if not (Sys.file_exists o.work_dir) then Sys.mkdir o.work_dir 0o755;
  let r =
    try run o
    with e ->
      Printf.eprintf "perfbench: %s raised %s\n" o.workload (Printexc.to_string e);
      exit 1
  in
  if r.spans <> [] then
    Tracer.write_tsv (Filename.concat o.work_dir (o.workload ^ ".spans.tsv")) r.spans;
  List.iter
    (fun (name, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
    r.checks;
  List.iter
    (fun m ->
      Printf.printf "metric %s = %s %s (n=%d)\n" m.name (json_number m.value) m.unit_
        m.samples)
    (r.metrics @ r.extra);
  let correct = List.for_all snd r.checks && r.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit_))
          r.metrics));
  if not correct then exit 1
