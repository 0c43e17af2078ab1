(* Checkpoint files: one Manager.Serial.repr serialised as a single
   CRC-guarded JSON line, written atomically (tmp + rename) so a crash
   mid-checkpoint leaves the previous checkpoint intact.  Floats (times)
   are stored as exact IEEE-754 bits in hex; every other field is a plain
   integer, so a round-trip is bit-exact by construction. *)

open Drtp
open Sealed_line

type t = { ck_wal_seq : int; ck_time : float; ck_repr : Manager.Serial.repr }

let version = 1

(* ---- encoding ------------------------------------------------------------ *)

let encode { ck_wal_seq; ck_time; ck_repr = r } =
  let b = Buffer.create (1 lsl 12) in
  Buffer.add_string b
    (Printf.sprintf "{\"v\":%d,\"wal_seq\":%d,\"t\":\"%s\"" version ck_wal_seq
       (hex_of_float ck_time));
  let ns = r.Manager.Serial.m_state in
  Buffer.add_string b ",\"prime\":";
  add_ints b (Array.to_list ns.Net_state.Serial.r_prime);
  Buffer.add_string b ",\"spare\":";
  add_ints b (Array.to_list ns.Net_state.Serial.r_spare);
  Buffer.add_string b ",\"failed\":";
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b (if v then '1' else '0'))
    ns.Net_state.Serial.r_failed;
  Buffer.add_char b ']';
  Buffer.add_string b
    (Printf.sprintf ",\"aplv_updates\":%d" ns.Net_state.Serial.r_aplv_updates);
  Buffer.add_string b ",\"conns\":[";
  List.iteri
    (fun i (c : Net_state.Serial.conn_repr) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"id\":%d,\"src\":%d,\"dst\":%d,\"bw\":%d,\"deg\":%d,\"p\":"
           c.r_id c.r_src c.r_dst c.r_bw
           (if c.r_degraded then 1 else 0));
      add_ints b c.r_primary;
      Buffer.add_string b ",\"b\":[";
      List.iteri
        (fun j bk ->
          if j > 0 then Buffer.add_char b ',';
          add_ints b bk)
        c.r_backups;
      Buffer.add_string b "]}")
    ns.Net_state.Serial.r_conns;
  Buffer.add_char b ']';
  let st = r.Manager.Serial.m_stats in
  Buffer.add_string b
    (Printf.sprintf ",\"stats\":[%d,%d,%d,%d,%d,%d,%d]" st.Manager.requests
       st.Manager.accepted st.Manager.rejected_no_primary
       st.Manager.rejected_no_backup st.Manager.released st.Manager.degraded
       st.Manager.unprotected);
  let rs = r.Manager.Serial.m_rstats in
  Buffer.add_string b
    (Printf.sprintf ",\"rstats\":[%d,%d,%d,%d],\"ut\":\"%s\"" rs.Manager.queued
       rs.Manager.drained rs.Manager.attempts rs.Manager.abandoned
       (hex_of_float rs.Manager.unprotected_time));
  Buffer.add_string b ",\"reprotect\":[";
  List.iteri
    (fun i (e : Manager.Serial.reprotect_repr) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"scheme\":%S,\"count\":%d,\"since\":\"%s\",\"trace\":%d,\"span\":%d}"
           e.rr_id e.rr_scheme e.rr_count (hex_of_float e.rr_since) e.rr_trace
           e.rr_span))
    r.Manager.Serial.m_reprotect;
  Buffer.add_char b ']';
  seal (Buffer.contents b)

(* ---- decoding ------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let int_array_field key j =
  let* xs = int_list_field key j in
  Ok (Array.of_list xs)

let decode line =
  let* j = Result.map_error (fun e -> "checkpoint: " ^ e) (unseal line) in
  let* v = int_field "v" j in
  if v <> version then
    Error (Printf.sprintf "checkpoint: unsupported version %d" v)
  else
    let* ck_wal_seq = int_field "wal_seq" j in
    let* ck_time = hex_float_field "t" j in
    let* r_prime = int_array_field "prime" j in
    let* r_spare = int_array_field "spare" j in
    let* failed_ints = int_array_field "failed" j in
    let r_failed = Array.map (fun v -> v <> 0) failed_ints in
    let* r_aplv_updates = int_field "aplv_updates" j in
    let* conns_json = arr_field "conns" j in
    let* r_conns =
      map_result
        (fun cj ->
          let* r_id = int_field "id" cj in
          let* r_src = int_field "src" cj in
          let* r_dst = int_field "dst" cj in
          let* r_bw = int_field "bw" cj in
          let* deg = int_field "deg" cj in
          let* r_primary = int_list_field "p" cj in
          let* bv = arr_field "b" cj in
          let* r_backups = map_result (int_list "b") bv in
          Ok
            {
              Net_state.Serial.r_id;
              r_src;
              r_dst;
              r_bw;
              r_degraded = deg <> 0;
              r_primary;
              r_backups;
            })
        conns_json
    in
    let* stats = int_array_field "stats" j in
    if Array.length stats <> 7 then Error "checkpoint: stats arity"
    else
      let* rstats = int_array_field "rstats" j in
      if Array.length rstats <> 4 then Error "checkpoint: rstats arity"
      else
        let* unprotected_time = hex_float_field "ut" j in
        let* rp_json = arr_field "reprotect" j in
        let* m_reprotect =
          map_result
            (fun ej ->
              let* rr_id = int_field "id" ej in
              let* rr_scheme = str_field "scheme" ej in
              let* rr_count = int_field "count" ej in
              let* rr_since = hex_float_field "since" ej in
              let* rr_trace = int_field "trace" ej in
              let* rr_span = int_field "span" ej in
              Ok
                {
                  Manager.Serial.rr_id;
                  rr_scheme;
                  rr_count;
                  rr_since;
                  rr_trace;
                  rr_span;
                })
            rp_json
        in
        let m_stats =
          {
            Manager.requests = stats.(0);
            accepted = stats.(1);
            rejected_no_primary = stats.(2);
            rejected_no_backup = stats.(3);
            released = stats.(4);
            degraded = stats.(5);
            unprotected = stats.(6);
          }
        in
        let m_rstats =
          {
            Manager.queued = rstats.(0);
            drained = rstats.(1);
            attempts = rstats.(2);
            abandoned = rstats.(3);
            unprotected_time;
          }
        in
        Ok
          {
            ck_wal_seq;
            ck_time;
            ck_repr =
              {
                Manager.Serial.m_state =
                  {
                    Net_state.Serial.r_prime;
                    r_spare;
                    r_failed;
                    r_aplv_updates;
                    r_conns;
                  };
                m_stats;
                m_rstats;
                m_reprotect;
              };
          }

(* ---- file I/O ------------------------------------------------------------ *)

let save path ck =
  let line = encode ck in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n');
  Sys.rename tmp path;
  String.length line + 1

let load path =
  if not (Sys.file_exists path) then Ok None
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error (path ^ ": empty checkpoint file")
        | line ->
            let* ck = decode line in
            Ok (Some ck))
  end
