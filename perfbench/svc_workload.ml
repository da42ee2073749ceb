(* The service workloads: a real [approx_cli serve] child process driven
   through Service.Client over a Unix socket, closed loop.

   rpc-roundtrip — why: every request pays the whole fixed path alone
   (encode, write, I/O loop, queue hop, shard, wake, flush, read), so
   this is where a change to client, wire or server must show; the
   algorithm's share is negligible. 1 client domain, 1 connection,
   window 1; 90% READ / 10% INC over c0..c3, reads also hit kmaxreg.

   durable-batch — why: the write-side twin. Pipelining makes read
   batching, drain fusion, coalesced flushes and the WAL do real work;
   the exact kinds log on every change. 2 client domains, 1 connection
   each, window 32, a fresh data dir with --fsync never (so the latency
   of a shared virtual disk does not set the figures);
   20% READ / 45% INC / 15% ADD(16) / 20% rising WRITEs over all seven
   default objects.

   Both servers: 1 shard, 1 I/O domain, default objects (c0..c3
   k-counters, faa, kmaxreg, cas-maxreg; k = 2). *)

open Common

type spec = {
  wname : string;
  conns : int;  (* = client domains *)
  window : int;
  durable : bool;
  read_pm : int;
  inc_pm : int;
  add_pm : int;  (* writes: the rest *)
  read_targets : int array;  (* object indices below *)
  write_ops : bool;
}

let rpc_roundtrip =
  { wname = "rpc-roundtrip"; conns = 1; window = 1; durable = false;
    read_pm = 900; inc_pm = 100; add_pm = 0;
    read_targets = [| 0; 1; 2; 3; 5 |]; write_ops = false }

let durable_batch =
  { wname = "durable-batch"; conns = 2; window = 32; durable = true;
    read_pm = 200; inc_pm = 450; add_pm = 150;
    read_targets = [| 0; 1; 2; 3; 4; 5; 6 |]; write_ops = true }

(* The server's default object set, in Objects.default_specs order. *)
let names = [| "c0"; "c1"; "c2"; "c3"; "faa"; "kmaxreg"; "cas-maxreg" |]
let exact = [| false; false; false; false; true; false; true |]
let is_max = [| false; false; false; false; false; true; true |]
let server_k = 2
let add_delta = 16

(* Op encoding: (object lsl 2) lor kind. *)
let k_read = 0 and k_inc = 1 and k_add = 2 and k_write = 3

let stream_len = 1 lsl 16

let make_stream spec ~seed ~conn =
  let r = rng ~seed ~workload:spec.wname ~conn in
  let pick a = a.(Random.State.int r (Array.length a)) in
  let counters = if spec.write_ops then [| 0; 1; 2; 3; 4 |] else [| 0; 1; 2; 3 |] in
  Array.init stream_len (fun _ ->
      let x = Random.State.int r 1000 in
      if x < spec.read_pm then (pick spec.read_targets lsl 2) lor k_read
      else if x < spec.read_pm + spec.inc_pm then (pick counters lsl 2) lor k_inc
      else if x < spec.read_pm + spec.inc_pm + spec.add_pm then
        (pick counters lsl 2) lor k_add
      else (pick [| 5; 6 |] lsl 2) lor k_write)

let request op ~id ~value =
  let name = names.(op lsr 2) in
  match op land 3 with
  | 0 -> Service.Wire.Read { id; name }
  | 1 -> Service.Wire.Inc { id; name }
  | 2 -> Service.Wire.Add { id; name; delta = add_delta }
  | _ -> Service.Wire.Write { id; name; value }

(* ---- the server child ---- *)

let children : int list ref = ref []

let reap pid =
  let deadline = now_ns () + 5_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_ns () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

(* Every exit path of the benchmark runs this (at_exit). *)
let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    !children;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* The server binary sits next to this executable in the build tree:
   _build/default/{perfbench/bench.exe, bin/approx_cli.exe}. *)
let server_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let exe = Filename.concat (Filename.concat (Filename.dirname dir) "bin") "approx_cli.exe" in
  if not (Sys.file_exists exe) then abort "server binary not found at %s" exe;
  exe

type server = {
  pid : int;
  out : Unix.file_descr;  (* banner pipe, drained at stop *)
  sock : string;
  flags : string list;
}

let spawn_server spec (o : opts) ~dir =
  let sock = Filename.concat dir "s.sock" in
  let flags =
    [ "--shards"; "1"; "--io-domains"; "1"; "-k";
      string_of_int (if o.widen then server_k * server_k else server_k) ]
    @ (if spec.durable then
         [ "--data-dir"; Filename.concat dir "data"; "--fsync"; "never" ]
       else [])
  in
  let args =
    [ "serve"; "--unix"; sock; "--duration"; string_of_int (o.seconds + 150) ]
    @ flags
  in
  let exe = server_exe () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile (Filename.concat dir "server.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null out_w err in
  children := pid :: !children;
  Unix.close out_w;
  Unix.close null;
  Unix.close err;
  (* Ready = the "serving ..." banner, printed once the socket is bound
     and recovery is done. *)
  let buf = Bytes.create 4096 and got = Buffer.create 256 in
  let deadline = now_ns () + 20_000_000_000 in
  let rec wait () =
    let s = Buffer.contents got in
    let ready =
      String.length s >= 7 && String.sub s 0 7 = "serving" && String.contains s '\n'
    in
    if not ready then begin
      let left = float (deadline - now_ns ()) /. 1e9 in
      if left <= 0.0 then abort "server not ready within 20 s (see %s/server.err)" dir;
      match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> wait ()
      | _ ->
        let n = Unix.read out_r buf 0 (Bytes.length buf) in
        if n = 0 then
          abort "server exited before it was ready (see %s/server.err)" dir;
        Buffer.add_subbytes got buf 0 n;
        wait ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    end
  in
  wait ();
  { pid; out = out_r; sock; flags }

let stop_server s =
  stop_child s.pid;
  Unix.close s.out

(* ---- correctness state shared by the client domains ----
   Counters: [sent] counts increments handed to the socket, [acked]
   those whose reply arrived. Max registers: [sent] is the largest value
   handed out, [acked] the largest acknowledged. A READ sent when
   acked = lo and answered when sent = hi must lie in [lo/k, hi*k]. *)

type shared = { sent : int Atomic.t array; acked : int Atomic.t array }

let shared () =
  { sent = Array.init (Array.length names) (fun _ -> Atomic.make 0);
    acked = Array.init (Array.length names) (fun _ -> Atomic.make 0) }

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* ---- one connection's closed loop ---- *)

let slots = 1024  (* id-indexed outstanding table; window <= 32 *)

type conn = {
  cid : int;
  client : Service.Client.t;
  stream : int array;
  mutable pos : int;
  (* outstanding requests, by id land (slots - 1) *)
  s_busy : bool array;
  s_op : int array;
  s_lo : int array;
  s_value : int array;
  s_t0 : int array;
  mutable inflight : int;
  mutable last_sent_id : int;
  win : windows;
  lat : vec;
  spans : Trace.t;
  mutable sent_ops : int;
  mutable failed : int;
  mutable violations : int;
  mutable first_violation : string;
}

let make_conn spec (o : opts) ~sock ~cid =
  let client = Service.Client.connect (Unix.ADDR_UNIX sock) in
  { cid; client; stream = make_stream spec ~seed:o.seed ~conn:cid; pos = 0;
    s_busy = Array.make slots false; s_op = Array.make slots 0;
    s_lo = Array.make slots 0; s_value = Array.make slots 0;
    s_t0 = Array.make slots 0; inflight = 0; last_sent_id = 0;
    win = windows ~seconds:o.seconds; lat = vec (1 lsl 18);
    spans = Trace.create (if o.trace then 1 lsl 14 else 1);
    sent_ops = 0; failed = 0; violations = 0; first_violation = "" }

let sp_req = 0 and sp_send = 1 and sp_flush = 2 and sp_wait = 3
let span_names = [| "req"; "client.send"; "client.flush"; "client.wait" |]
let span_id c id = (c.cid lsl 32) lor id

let send_one c sh ~traced =
  let op = c.stream.(c.pos land (stream_len - 1)) in
  c.pos <- c.pos + 1;
  let obj = op lsr 2 in
  let id = Service.Client.fresh_id c.client in
  let slot = id land (slots - 1) in
  if c.s_busy.(slot) then abort "request id slot %d still outstanding" slot;
  let value =
    match op land 3 with
    | 1 -> Atomic.incr sh.sent.(obj); 0
    | 2 -> ignore (Atomic.fetch_and_add sh.sent.(obj) add_delta); 0
    | 3 -> Atomic.fetch_and_add sh.sent.(obj) 1 + 1
    | _ -> 0
  in
  let t0 = now_ns () in
  c.s_busy.(slot) <- true;
  c.s_op.(slot) <- op;
  c.s_lo.(slot) <- Atomic.get sh.acked.(obj);
  c.s_value.(slot) <- value;
  c.s_t0.(slot) <- t0;
  Service.Client.send c.client (request op ~id ~value);
  if traced then
    Trace.record c.spans ~id:(span_id c id) ~name:sp_send ~parent:sp_req
      ~start:t0 ~stop:(now_ns ());
  c.inflight <- c.inflight + 1;
  c.sent_ops <- c.sent_ops + 1;
  c.last_sent_id <- id

let flush c ~traced =
  let t0 = now_ns () in
  Service.Client.flush c.client;
  if traced then
    Trace.record c.spans ~id:(span_id c c.last_sent_id) ~name:sp_flush
      ~parent:sp_req ~start:t0 ~stop:(now_ns ())

let violation c fmt =
  Printf.ksprintf
    (fun s ->
      c.violations <- c.violations + 1;
      c.failed <- c.failed + 1;
      if c.first_violation = "" then c.first_violation <- s)
    fmt

let recv_one c sh (o : opts) ~traced ~start =
  let t_wait = now_ns () in
  let resp = Service.Client.recv c.client in
  let t1 = now_ns () in
  let id = Service.Wire.response_id resp in
  let slot = id land (slots - 1) in
  if not c.s_busy.(slot) then abort "reply for unknown request id %d" id;
  c.s_busy.(slot) <- false;
  c.inflight <- c.inflight - 1;
  let op = c.s_op.(slot) in
  let obj = op lsr 2 in
  (match resp with
   | Service.Wire.Value { value; _ } -> (
       match op land 3 with
       | 0 ->
         let lo = c.s_lo.(slot) and hi = Atomic.get sh.sent.(obj) in
         let k = if exact.(obj) then 1 else server_k in
         let v = if o.forge && c.violations = 0 then (hi * k) + 1 else value in
         if not (within ~k ~lo ~hi v) then
           violation c "READ %s = %d outside [%d/%d, %d*%d]" names.(obj) v lo k hi k
       | 1 -> Atomic.incr sh.acked.(obj)
       | 2 -> ignore (Atomic.fetch_and_add sh.acked.(obj) add_delta)
       | _ -> atomic_max sh.acked.(obj) c.s_value.(slot))
   | _ -> c.failed <- c.failed + 1);
  let t0 = c.s_t0.(slot) in
  push c.lat (t1 - t0);
  add_window c.win ~start ~now:t1 1;
  if traced then begin
    let sid = span_id c id in
    Trace.record c.spans ~id:sid ~name:sp_wait ~parent:sp_req ~start:t_wait ~stop:t1;
    Trace.record c.spans ~id:sid ~name:sp_req ~parent:(-1) ~start:t0 ~stop:(now_ns ())
  end

(* Keep [window] requests in flight; refill (one coalesced write) once
   half of them have been answered. Stops sending at [deadline] or after
   [limit] sends, then drains what is in flight. *)
let drive spec c sh o ~start ~deadline ~limit ~traced =
  let refill_at = spec.window - max 1 (spec.window / 2) in
  let sending () = c.sent_ops < limit && now_ns () < deadline in
  let fill () =
    while c.inflight < spec.window && sending () do send_one c sh ~traced done;
    flush c ~traced
  in
  fill ();
  while c.inflight > 0 do
    recv_one c sh o ~traced ~start;
    if c.inflight <= refill_at && sending () then fill ()
  done

(* ---- STATS ---- *)

let stats stats_client = parse_json (Service.Client.stats_json stats_client)

let io_sum j keys = sum_rows j "io_loops" keys
let shard_sum j keys = sum_rows j "shards" keys
let obj_sum j keys = sum_rows j "objects" keys

(* ---- one segment ---- *)

let seg_no = ref 0

let segment spec (o : opts) =
  incr seg_no;
  let dir = Filename.concat o.run_dir (Printf.sprintf "seg%d" !seg_no) in
  let t0 = now_ns () in
  Unix.mkdir dir 0o755;
  let srv = spawn_server spec o ~dir in
  let sh = shared () in
  let conns = List.init spec.conns (fun cid -> make_conn spec o ~sock:srv.sock ~cid) in
  let stats_client = Service.Client.connect (Unix.ADDR_UNIX srv.sock) in
  (* Warm-up: a fixed number of requests per connection, same loop. *)
  List.iter
    (fun c ->
      drive spec c sh o ~start:0 ~deadline:max_int ~limit:2000 ~traced:false;
      c.lat.n <- 0)
    conns;
  let setup_s = float (now_ns () - t0) /. 1e9 in
  let phase ~traced =
    let t_start = now_ns () in
    let deadline = t_start + phase_ns o in
    List.iter (fun c -> Array.fill c.win 0 (Array.length c.win) 0) conns;
    let body c () = drive spec c sh o ~start:t_start ~deadline ~limit:max_int ~traced in
    (match conns with
     | [ c ] -> body c ()
     | cs -> List.iter Domain.join (List.map (fun c -> Domain.spawn (body c)) cs));
    let stop = min (now_ns ()) deadline in
    (window_rates (List.map (fun c -> c.win) conns) ~start:t_start ~stop,
     stop - t_start)
  in
  let st0 = stats stats_client in
  let rates, main_ns = phase ~traced:false in
  let st1 = stats stats_client in
  let lat = vec_concat (List.map (fun c -> c.lat) conns) in
  let traced = if o.trace then Some (phase ~traced:true) else None in
  let st_end = stats stats_client in
  let rss_kb = proc_status_kb ~pid:srv.pid "VmHWM" in
  let acc_violations = path st_end [ "server"; "acc_violations_total" ] in
  let sum f = List.fold_left (fun a c -> a + f c) 0 conns in
  let first =
    List.fold_left (fun a c -> if a = "" then c.first_violation else a) "" conns
  in
  let layers =
    match traced with
    | None -> []
    | Some (traced_rates, traced_ns) ->
      let untraced = median_float rates and traced_rate = median_float traced_rates in
      let spans = List.map (fun c -> c.spans) conns in
      Trace.write spans ~names:span_names o.trace_file;
      let p50_us name = Trace.p50_ns spans [ name ] /. 1e3 in
      let total = Trace.total_ns spans in
      let per_req x = float x /. float (max 1 (Trace.count spans sp_req)) /. 1e3 in
      let client_ns = total sp_send + total sp_flush in
      let d keys f = f st1 keys - f st0 keys in
      let ops = path st1 [ "server"; "total_ops" ] - path st0 [ "server"; "total_ops" ] in
      let dur key = path st1 [ "durability"; key ] - path st0 [ "durability"; key ] in
      let cache_hits = d [ "cache_hits" ] obj_sum and cache_misses = d [ "cache_misses" ] obj_sum in
      let busy_ns = d [ "cycle_ns"; "sum" ] io_sum in
      [ m "client.send_us" "us" (p50_us sp_send);
        m "client.flush_us" "us" (p50_us sp_flush);
        m "client.wait_us" "us" (p50_us sp_wait);
        m "client.self_us" "us" (per_req client_ns);
        (* The harness's own time: the domains' traced wall time minus
           every client call (send, flush, wait). *)
        m "bench.self_us" "us"
          (per_req ((traced_ns * spec.conns) - client_ns - total sp_wait));
        m "server.wakeups_per_op" "count" (ratio (d [ "wakeups" ] io_sum) ops);
        m "server.cycles_per_op" "count" (ratio (d [ "cycles" ] io_sum) ops);
        m "server.reqs_per_read" "count"
          (ratio (d [ "read_batch"; "sum" ] io_sum) (d [ "read_batch"; "count" ] io_sum));
        m "server.bytes_per_flush" "B"
          (ratio (d [ "flush_bytes"; "sum" ] io_sum) (d [ "flush_bytes"; "count" ] io_sum));
        m "server.tasks_per_drain" "count"
          (ratio (d [ "tasks" ] shard_sum) (d [ "batches" ] shard_sum));
        m "server.busy_frac" "ratio" (float busy_ns /. float main_ns);
        m "server.self_us" "us" (ratio busy_ns ops /. 1e3);
        m "server.shard_latency_us" "us"
          (ratio (d [ "latency_ns"; "sum" ] shard_sum) (d [ "tasks" ] shard_sum) /. 1e3);
        m "objects.ops_per_apply" "count"
          (ratio (d [ "deferred_ops" ] shard_sum) (d [ "fused_applies" ] shard_sum));
        m "objects.read_memo_frac" "ratio"
          (ratio (d [ "batch_read_hits" ] obj_sum) (d [ "reads" ] obj_sum));
        m "objects.cache_hit_frac" "ratio" (ratio cache_hits (cache_hits + cache_misses));
        m "persist.appends_per_kop" "count" (ratio (dur "wal_appends" * 1000) ops);
        m "persist.bytes_per_op" "B" (ratio (dur "wal_bytes") ops);
        m "persist.flushes_per_kop" "count" (ratio (dur "wal_flushes" * 1000) ops);
        m "persist.snapshots" "count" (float (dur "snapshots"));
        m "trace.untraced_ops_per_s" "1/s" untraced;
        m "trace.traced_ops_per_s" "1/s" traced_rate;
        m "trace.overhead_frac" "ratio" ((untraced -. traced_rate) /. untraced) ]
      @ Replay.service_layers ~spec_window:spec.window ~add_delta ~request ~names ~exact
          ~is_max ~durable:spec.durable ~k:server_k
          ~streams:(List.map (fun c -> c.stream) conns) ~seed:o.seed ~smoke:o.smoke ~dir
  in
  List.iter (fun c -> Service.Client.close c.client) conns;
  Service.Client.close stats_client;
  stop_server srv;
  rm_rf dir;
  if first <> "" then prerr_endline ("correctness: " ^ first);
  if acc_violations > 0 then
    Printf.eprintf "correctness: server reports acc_violations_total = %d\n" acc_violations;
  { g_setup_s = setup_s;
    g_rates = rates;
    g_lat = lat;
    g_rss_kb = rss_kb;
    g_attempted = sum (fun c -> c.sent_ops);
    g_failed = sum (fun c -> c.failed) + acc_violations;
    g_violations = sum (fun c -> c.violations) + acc_violations;
    g_layers = layers;
    g_notes =
      [ Printf.sprintf "server: approx_cli serve %s (1 shard, 1 I/O domain, default objects)"
          (String.concat " " srv.flags);
        Printf.sprintf "load: %d connection(s) x window %d, closed loop, %d client domain(s)"
          spec.conns spec.window spec.conns ] }
