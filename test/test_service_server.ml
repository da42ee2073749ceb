(* End-to-end tests of the sharded service over a Unix-domain socket:
   correctness of served ops, the k-multiplicative accuracy self-check
   against the debug exact counter, the STATS op, bounded-pending
   backpressure, the run-to-completion design (no wake-ups on the
   request path, shard locks under cross-loop contention), and chaos
   (clients killed mid-request must leave every shard serviceable). *)

module Srv = Service.Server
module Cl = Service.Client
module W = Service.Wire
module M = Service.Metrics

let check = Alcotest.check

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "approx_svc_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?config f =
  let srv = Srv.start ?config ~listen:(`Unix (sock_path ())) () in
  Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> f srv)

let value_exn = function
  | W.Value { value; _ } -> value
  | _ -> Alcotest.fail "expected a Value reply"

let obj_stats srv name =
  List.find (fun o -> o.M.o_name = name) (M.objects (Srv.metrics srv))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

(* Poll until [cond] holds or ~5s pass; chaos outcomes are observed by
   the server asynchronously. *)
let await cond =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if (not (cond ())) && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Basic serving                                                       *)
(* ------------------------------------------------------------------ *)

let test_basic_ops () =
  with_server (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      Alcotest.(check bool) "ping" true (Cl.ping c);
      for _ = 1 to 100 do
        ignore (value_exn (Cl.inc c "faa"))
      done;
      check Alcotest.int "faa reads exactly" 100 (Cl.read_value c "faa");
      ignore (value_exn (Cl.write c "cas-maxreg" 4242));
      check Alcotest.int "cas-maxreg reads back the max" 4242
        (Cl.read_value c "cas-maxreg");
      ignore (value_exn (Cl.write c "kmaxreg" 1000));
      let served = Cl.read_value c "kmaxreg" in
      Alcotest.(check bool) "kmaxreg within [exact, k*exact]" true
        (served >= 1000 && served <= 1000 * 4);
      (match Cl.inc c "no-such-object" with
       | W.Unknown_object _ -> ()
       | _ -> Alcotest.fail "expected Unknown_object");
      (match Cl.write c "faa" 3 with
       | W.Bad_request _ -> ()
       | _ -> Alcotest.fail "expected Bad_request for WRITE on a counter");
      (match Cl.write c "kmaxreg" (-1) with
       | W.Bad_request _ -> ()
       | _ -> Alcotest.fail "expected Bad_request for out-of-range WRITE");
      Cl.close c)

let test_kcounter_accuracy () =
  with_server (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      let exact = ref 0 in
      for round = 1 to 20 do
        for _ = 1 to round * 10 do
          ignore (value_exn (Cl.inc c "c0"));
          incr exact
        done;
        let served = value_exn (Cl.read_op c "c0") in
        Alcotest.(check bool)
          (Printf.sprintf "read %d within k-envelope of %d" served !exact)
          true
          (Zmath.within_k ~k:4 ~exact:!exact served)
      done;
      (* The server's own self-check agrees. *)
      let stats = obj_stats srv "c0" in
      check Alcotest.int "20 self-checks ran" 20 stats.M.acc_checks;
      check Alcotest.int "no self-check violations" 0 stats.M.acc_violations;
      check Alcotest.int "exact shadow tracked every inc" !exact
        stats.M.last_exact;
      Cl.close c)

let test_add_op () =
  with_server (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      (* Exact baseline: ADD sums deltas precisely. *)
      ignore (value_exn (Cl.add c "faa" 0));
      for i = 1 to 50 do
        ignore (value_exn (Cl.add c "faa" i))
      done;
      check Alcotest.int "faa sums the deltas exactly" 1275
        (Cl.read_value c "faa");
      (* Approximate counter: envelope against the exact shadow. *)
      let exact = ref 0 in
      for i = 1 to 30 do
        ignore (value_exn (Cl.add c "c0" (i * 7)));
        exact := !exact + (i * 7)
      done;
      let served = Cl.read_value c "c0" in
      Alcotest.(check bool)
        (Printf.sprintf "ADD total %d served within envelope (%d)" !exact
           served)
        true
        (Zmath.within_k ~k:4 ~exact:!exact served);
      let stats = obj_stats srv "c0" in
      check Alcotest.int "adds counted" 30 stats.M.adds;
      check Alcotest.int "exact shadow tracks the deltas" !exact
        stats.M.last_exact;
      (* Rejection: negative and oversized deltas, non-counter target. *)
      (match Cl.add c "c0" (-1) with
       | W.Bad_request _ -> ()
       | _ -> Alcotest.fail "negative delta accepted");
      (match Cl.add c "c0" (Service.Objects.max_add_delta + 1) with
       | W.Bad_request _ -> ()
       | _ -> Alcotest.fail "oversized delta accepted");
      (match Cl.add c "kmaxreg" 5 with
       | W.Bad_request _ -> ()
       | _ -> Alcotest.fail "ADD on a max register accepted");
      (match Cl.add c "no-such-object" 1 with
       | W.Unknown_object _ -> ()
       | _ -> Alcotest.fail "expected Unknown_object");
      Cl.close c)

(* ------------------------------------------------------------------ *)
(* Drain-batch fusion                                                  *)
(* ------------------------------------------------------------------ *)

(* Server-level fusion counts are timing-dependent (they depend on how
   many tasks each drain happens to pop), so the deterministic test
   drives the Objects fusion API directly; the wire-level test below
   only asserts value correctness and counter consistency. *)
let test_objects_fusion_deterministic () =
  let metrics = M.create ~shards:1 ~io_domains:1 () in
  let table =
    Service.Objects.build ~metrics ~shards:1
      (Service.Objects.default_specs ~counters:1 ~k:4)
  in
  let o = Option.get (Service.Objects.find table "c0") in
  Alcotest.(check bool) "first defer dirties" true
    (Service.Objects.defer o ~via_add:false 1);
  Alcotest.(check bool) "second defer finds it dirty" false
    (Service.Objects.defer o ~via_add:true 41);
  Service.Objects.apply_pending o ~pid:0;
  let stats = Service.Objects.stats o in
  check Alcotest.int "one inc recorded" 1 stats.M.incs;
  check Alcotest.int "one add recorded" 1 stats.M.adds;
  let v1 = Service.Objects.batch_read o ~pid:0 ~stamp:1 in
  let v2 = Service.Objects.batch_read o ~pid:0 ~stamp:1 in
  check Alcotest.int "same drain stamp memoizes the value" v1 v2;
  check Alcotest.int "memo hit counted" 1 stats.M.batch_read_hits;
  check Alcotest.int "both reads counted" 2 stats.M.reads;
  Alcotest.(check bool) "fused value within envelope of 42" true
    (Zmath.within_k ~k:4 ~exact:42 v1);
  check Alcotest.int "self-check ran once (memo hit skips it)" 1
    stats.M.acc_checks;
  check Alcotest.int "no violations" 0 stats.M.acc_violations;
  Alcotest.(check bool) "defer after apply dirties anew" true
    (Service.Objects.defer o ~via_add:false 1);
  Service.Objects.apply_pending o ~pid:0;
  let v3 = Service.Objects.batch_read o ~pid:0 ~stamp:2 in
  Alcotest.(check bool) "new stamp recomputes within envelope" true
    (Zmath.within_k ~k:4 ~exact:43 v3)

let test_pipelined_fusion_burst () =
  (* max_pending must exceed the burst or the tail gets BUSY replies. *)
  let config = { Srv.default_config with shards = 1; max_pending = 1_000 } in
  with_server ~config (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      let total = ref 0 in
      let reads = ref [] in
      let nops = 300 in
      for id = 0 to nops - 1 do
        if id mod 3 = 2 then Cl.send c (W.Read { id; name = "faa" })
        else begin
          Cl.send c (W.Inc { id; name = "faa" });
          incr total
        end
      done;
      Cl.flush c;
      for _ = 1 to nops do
        match Cl.recv c with
        | W.Value { id; value } ->
          if id mod 3 = 2 then reads := value :: !reads
          else check Alcotest.int "inc acks with 0" 0 value
        | W.Busy _ -> Alcotest.fail "unexpected BUSY (pending bound raised)"
        | _ -> Alcotest.fail "unexpected reply under the burst"
      done;
      (* All ops were concurrently in flight, so any monotone read
         sequence bounded by the final exact count is linearizable;
         shard-serial execution makes it monotone in reply order. *)
      ignore
        (List.fold_left
           (fun prev v ->
             Alcotest.(check bool)
               (Printf.sprintf "read %d monotone and <= %d" v !total)
               true
               (v >= prev && v <= !total);
             v)
           0 (List.rev !reads));
      check Alcotest.int "final count exact" !total (Cl.read_value c "faa");
      (* Every executed INC went through the defer/apply fusion path. *)
      let sh = M.shard (Srv.metrics srv) 0 in
      check Alcotest.int "every inc was deferred" !total sh.M.deferred_ops;
      Alcotest.(check bool) "bulk applies happened" true
        (sh.M.fused_applies >= 1 && sh.M.fused_applies <= !total);
      Cl.close c)

(* ------------------------------------------------------------------ *)
(* Loadgen against a 4-shard server                                    *)
(* ------------------------------------------------------------------ *)

let test_loadgen_4_shards poller () =
  let config = { Srv.default_config with shards = 4; poller } in
  with_server ~config (fun srv ->
      let cfg =
        { Service.Loadgen.default_config with
          connections = 3;
          ops_per_connection = 2_000;
          pipeline = 16;
          seed = 11;
          poller }
      in
      let r = Service.Loadgen.run ~addrs:[ Srv.sockaddr srv ] cfg in
      check Alcotest.int "no protocol errors" 0 r.Service.Loadgen.errors;
      check Alcotest.int "every op completed" 6_000
        (r.Service.Loadgen.ok + r.Service.Loadgen.busy);
      Alcotest.(check bool) "throughput measured" true
        (r.Service.Loadgen.ops_per_sec > 0.0);
      Alcotest.(check bool) "p50 <= p99" true
        (r.Service.Loadgen.p50_ns <= r.Service.Loadgen.p99_ns);
      check Alcotest.int "latency histogram holds every op" 6_000
        (Service.Histogram.count r.Service.Loadgen.latency);
      let m = Srv.metrics srv in
      check Alcotest.int "no accuracy violations under load" 0
        (M.acc_violations_total m);
      Alcotest.(check bool) "ops were recorded" true (M.total_ops m > 0);
      for s = 0 to config.Srv.shards - 1 do
        let sh = M.shard m s in
        check Alcotest.int
          (Printf.sprintf "shard %d latency samples = tasks" s)
          sh.M.tasks
          (Service.Histogram.count sh.M.s_latency)
      done;
      (* STATS over the wire: JSON text with live counters. *)
      let c = Cl.connect (Srv.sockaddr srv) in
      let json = Cl.stats_json c in
      Cl.close c;
      Alcotest.(check bool) "stats is a JSON object" true (json.[0] = '{');
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "stats mentions %S" needle)
            true (contains ~needle json))
        [ "\"acc_violations_total\": 0"; "latency_ns"; "read_batch";
          "\"kind\": \"kcounter\""; "total_ops";
          Printf.sprintf "\"poller\": %S" (Srv.poller_name srv);
          "max_ready_batch"; "\"poller_rejects\": 0" ])

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)
(* ------------------------------------------------------------------ *)

let test_backpressure_bounded () =
  (* A 4-deep pending bound against a 4000-request pipelined burst: one
     read parses far more than 4 frames, so all but the first 4 of each
     read batch are refused before the cycle's stage runs. The server
     must answer every request (BUSY at saturation), never buffer
     unboundedly, and keep serving after. *)
  let config = { Srv.default_config with shards = 1; max_pending = 4 } in
  with_server ~config (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      let burst = 4_000 in
      for id = 0 to burst - 1 do
        Cl.send c (W.Inc { id; name = "c0" })
      done;
      Cl.flush c;
      let ok = ref 0 and busy = ref 0 in
      for _ = 1 to burst do
        match Cl.recv c with
        | W.Value _ -> incr ok
        | W.Busy _ -> incr busy
        | _ -> Alcotest.fail "unexpected reply under burst"
      done;
      check Alcotest.int "every request answered" burst (!ok + !busy);
      Alcotest.(check bool) "some requests served" true (!ok > 0);
      (* The connection is still fully serviceable afterwards. *)
      Alcotest.(check bool) "ping after burst" true (Cl.ping c);
      (* Exactly the accepted increments reached the object. *)
      check Alcotest.int "served increments counted exactly" !ok
        (obj_stats srv "c0").M.incs;
      check Alcotest.int "busy replies counted" !busy
        (M.busy_replies (Srv.metrics srv));
      Cl.close c)

let test_max_pending_bound () =
  let config = { Srv.default_config with shards = 1; max_pending = 4 } in
  with_server ~config (fun srv ->
      let c = Cl.connect (Srv.sockaddr srv) in
      (* Sequential (closed-loop, window 1) ops never trip the bound. *)
      for _ = 1 to 50 do
        ignore (value_exn (Cl.inc c "c0"))
      done;
      check Alcotest.int "sequential ops all served" 0
        (M.busy_replies (Srv.metrics srv));
      Cl.close c)

(* ------------------------------------------------------------------ *)
(* Run to completion                                                   *)
(* ------------------------------------------------------------------ *)

(* A request is executed and answered on the loop that read it, so a
   1-loop server at window 1 never writes its wake pipe: the only
   producers left are accept handoffs to other loops and stop. *)
let test_no_wakeups_at_window_1 () =
  let config = { Srv.default_config with shards = 2; io_domains = 1 } in
  with_server ~config (fun srv ->
      let m = Srv.metrics srv in
      let c = Cl.connect (Srv.sockaddr srv) in
      Alcotest.(check bool) "ping" true (Cl.ping c);
      let il = M.io_loop m 0 in
      let wakeups0 = il.M.l_wakeups and tasks0 = M.total_ops m in
      let n = 500 in
      for i = 1 to n do
        if i mod 4 = 0 then ignore (Cl.read_value c "c1")
        else ignore (value_exn (Cl.inc c "c0"))
      done;
      check Alcotest.int "every op executed" n (M.total_ops m - tasks0);
      check Alcotest.int "no wake-ups over the ops" 0 (il.M.l_wakeups - wakeups0);
      Cl.close c)

(* Two loops executing batches for the same single shard: the shard
   lock is the only thing keeping the plain-int exact shadows and op
   counters from losing updates. *)
let test_cross_loop_contention () =
  let config =
    { Srv.default_config with shards = 1; io_domains = 2; max_pending = 64 }
  in
  with_server ~config (fun srv ->
      let m = Srv.metrics srv in
      let addr = Srv.sockaddr srv in
      (* Round-robin dealing puts the two connections on different
         loops. *)
      let c1 = Cl.connect addr and c2 = Cl.connect addr in
      Alcotest.(check bool) "ping 1" true (Cl.ping c1);
      Alcotest.(check bool) "ping 2" true (Cl.ping c2);
      for l = 0 to 1 do
        check Alcotest.int (Printf.sprintf "loop %d owns one conn" l) 1
          (M.io_loop m l).M.l_owned_conns
      done;
      let rounds = 200 and window = 32 in
      (* Returns (acked c0 INCs, acked faa INCs, largest acked WRITE). *)
      let drive c ~base =
        let c0 = ref 0 and faa = ref 0 and top = ref 0 in
        for r = 0 to rounds - 1 do
          for j = 0 to window - 1 do
            let id = (r * window) + j in
            Cl.send c
              (match j mod 4 with
               | 0 | 1 -> W.Inc { id; name = "c0" }
               | 2 -> W.Inc { id; name = "faa" }
               | _ -> W.Write { id; name = "kmaxreg"; value = base + id })
          done;
          Cl.flush c;
          for _ = 1 to window do
            match Cl.recv c with
            | W.Value { id; _ } -> (
              match (id mod window) mod 4 with
              | 0 | 1 -> incr c0
              | 2 -> incr faa
              | _ -> top := max !top (base + id))
            | _ -> Alcotest.fail "unexpected reply under contention"
          done
        done;
        (!c0, !faa, !top)
      in
      let d2 = Domain.spawn (fun () -> drive c2 ~base:1_000_000) in
      let a0, af, at = drive c1 ~base:0 in
      let b0, bf, bt = Domain.join d2 in
      check Alcotest.int "c0 incs = acked INCs" (a0 + b0)
        (obj_stats srv "c0").M.incs;
      check Alcotest.int "faa reads exactly" (af + bf) (Cl.read_value c1 "faa");
      let top = max at bt in
      let served = Cl.read_value c1 "kmaxreg" in
      Alcotest.(check bool) "kmaxreg within [max, k*max]" true
        (served >= top && served <= 4 * top);
      check Alcotest.int "no accuracy violations" 0 (M.acc_violations_total m);
      Cl.close c1;
      Cl.close c2)

(* ------------------------------------------------------------------ *)
(* Connection lifecycle: churn, max_conns, multi-loop ownership        *)
(* ------------------------------------------------------------------ *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let raw_connect addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.connect fd addr;
  fd

let test_connection_churn poller () =
  let config = { Srv.default_config with poller } in
  with_server ~config (fun srv ->
      let m = Srv.metrics srv in
      (* One throwaway connection first so lazy allocations (client
         buffers etc.) don't count against the baseline. *)
      let c = Cl.connect (Srv.sockaddr srv) in
      Alcotest.(check bool) "ping" true (Cl.ping c);
      Cl.close c;
      await (fun () -> M.closed m >= 1);
      let fd_baseline = open_fds () in
      let rounds = 50 in
      for _ = 1 to rounds do
        let c = Cl.connect (Srv.sockaddr srv) in
        ignore (value_exn (Cl.inc c "faa"));
        Cl.close c
      done;
      await (fun () -> M.closed m >= rounds + 1);
      check Alcotest.int "every churned conn reaped" (rounds + 1) (M.closed m);
      check Alcotest.int "accept counter matches" (rounds + 1) (M.accepted m);
      check Alcotest.int "live-connection counter drained" 0
        (Srv.live_connections srv);
      check Alcotest.int "owned-connection gauge drained" 0 (M.owned_conns m);
      check Alcotest.int "no fd leak across churn" fd_baseline (open_fds ()))

let test_max_conns_enforced poller () =
  let config = { Srv.default_config with max_conns = 2; poller } in
  with_server ~config (fun srv ->
      let addr = Srv.sockaddr srv in
      let c1 = Cl.connect addr and c2 = Cl.connect addr in
      Alcotest.(check bool) "conn 1 served" true (Cl.ping c1);
      Alcotest.(check bool) "conn 2 served" true (Cl.ping c2);
      (* The third connection is accepted and immediately closed; the
         client observes EOF (or a reset, if its write races the
         close). *)
      let v = raw_connect addr in
      let eof =
        let b = Bytes.create 16 in
        match Unix.read v b 0 16 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> true
      in
      Alcotest.(check bool) "over-limit conn sees EOF" true eof;
      (try Unix.close v with Unix.Unix_error _ -> ());
      let m = Srv.metrics srv in
      await (fun () -> M.accepted m >= 3 && M.closed m >= 1);
      check Alcotest.int "rejection counted as accept+close" 3 (M.accepted m);
      check Alcotest.int "only the reject closed" 1 (M.closed m);
      check Alcotest.int "live count excludes the reject" 2
        (Srv.live_connections srv);
      (* Closing an admitted connection frees a slot: the next connect
         is served. *)
      Cl.close c2;
      await (fun () -> Srv.live_connections srv < 2);
      let c3 = Cl.connect addr in
      Alcotest.(check bool) "slot reuse after close" true (Cl.ping c3);
      (* Both survivors still work. *)
      Alcotest.(check bool) "original conn unaffected" true (Cl.ping c1);
      Cl.close c3;
      Cl.close c1)

let test_multi_io_domain_load poller () =
  let config =
    { Srv.default_config with shards = 4; io_domains = 4; poller }
  in
  with_server ~config (fun srv ->
      let cfg =
        { Service.Loadgen.default_config with
          connections = 8;
          ops_per_connection = 2_000;
          pipeline = 8;
          read_permille = 300;
          add_permille = 200;
          seed = 7;
          poller }
      in
      let r = Service.Loadgen.run ~addrs:[ Srv.sockaddr srv ] cfg in
      check Alcotest.int "no protocol errors" 0 r.Service.Loadgen.errors;
      check Alcotest.int "every op completed" 16_000
        (r.Service.Loadgen.ok + r.Service.Loadgen.busy);
      let m = Srv.metrics srv in
      check Alcotest.int "no accuracy violations across loops" 0
        (M.acc_violations_total m);
      check Alcotest.int "four io loops" 4 (M.io_domains m);
      await (fun () -> M.closed m >= 8);
      (* Round-robin dealing: 8 connections over 4 loops, so every loop
         owned (and by now reaped) its share and did real work. *)
      for l = 0 to 3 do
        let il = M.io_loop m l in
        Alcotest.(check bool)
          (Printf.sprintf "loop %d owned connections" l)
          true (il.M.l_closed >= 2);
        Alcotest.(check bool)
          (Printf.sprintf "loop %d ran active cycles" l)
          true (il.M.l_cycles >= 1);
        Alcotest.(check bool)
          (Printf.sprintf "loop %d cycle histogram consistent" l)
          true
          (Service.Histogram.count il.M.l_cycle_ns = il.M.l_cycles)
      done;
      check Alcotest.int "owned-connection gauges drained" 0 (M.owned_conns m);
      Alcotest.(check bool) "accept handoffs woke the other loops" true
        (let total = ref 0 in
         for l = 0 to 3 do
           total := !total + (M.io_loop m l).M.l_wakeups
         done;
         !total > 0);
      (* Per-loop observability is visible over the wire. *)
      let c = Cl.connect (Srv.sockaddr srv) in
      let json = Cl.stats_json c in
      Cl.close c;
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "stats mentions %S" needle)
            true (contains ~needle json))
        [ "io_loops"; "\"io_domains\": 4"; "owned_conns"; "cycle_ns";
          "flush_bytes"; "wakeups"; "\"loop\": 3" ])

(* ------------------------------------------------------------------ *)
(* Chaos: dead clients and poisonous frames                            *)
(* ------------------------------------------------------------------ *)

let test_kill_client_mid_request () =
  let config = { Srv.default_config with shards = 2 } in
  with_server ~config (fun srv ->
      let addr = Srv.sockaddr srv in
      (* Victim 1 dies mid-frame: a header announcing 20 payload bytes
         followed by only 3 of them, then the socket vanishes. *)
      let v1 = raw_connect addr in
      let torn = Buffer.create 8 in
      Buffer.add_int32_be torn 20l;
      Buffer.add_string torn "\x01ab";
      let tb = Buffer.to_bytes torn in
      ignore (Unix.write v1 tb 0 (Bytes.length tb));
      Unix.close v1;
      (* Victim 2 sends a complete request and dies without reading the
         response (exercises the dead-connection write path). *)
      let v2 = Cl.connect addr in
      Cl.send v2 (W.Inc { id = 7; name = "c1" });
      Cl.flush v2;
      Cl.close v2;
      (* Victim 3 sends an oversized frame header; the server must
         reject and close it. *)
      let v3 = raw_connect addr in
      let big = Buffer.create 8 in
      Buffer.add_int32_be big 0x7FFFFFFFl;
      let bb = Buffer.to_bytes big in
      ignore (Unix.write v3 bb 0 (Bytes.length bb));
      let m = Srv.metrics srv in
      await (fun () -> M.oversized_frames m >= 1);
      check Alcotest.int "oversized frame rejected" 1 (M.oversized_frames m);
      (try Unix.close v3 with Unix.Unix_error _ -> ());
      await (fun () -> M.closed m >= 3);
      check Alcotest.int "all victims reaped" 3 (M.closed m);
      (* Both shards must still be fully serviceable. *)
      let c = Cl.connect addr in
      for _ = 1 to 25 do
        ignore (value_exn (Cl.inc c "c0"));
        ignore (value_exn (Cl.inc c "c1"));
        ignore (value_exn (Cl.inc c "faa"))
      done;
      check Alcotest.int "exact counter consistent after chaos" 25
        (Cl.read_value c "faa");
      Alcotest.(check bool) "k-counter still within envelope" true
        (Zmath.within_k ~k:4 ~exact:25 (Cl.read_value c "c0"));
      Alcotest.(check bool) "ping" true (Cl.ping c);
      check Alcotest.int "no accuracy violations after chaos" 0
        (M.acc_violations_total m);
      Cl.close c)

(* The lifecycle/load suites run once per compiled-in poller backend:
   the select fallback everywhere, epoll where the stubs are built. *)
let pollers =
  ("select", Service.Poller.Select)
  :: (if Service.Poller.epoll_available then [ ("epoll", Service.Poller.Epoll) ]
      else [])

let per_poller mk =
  List.concat_map
    (fun (label, poller) ->
      List.map
        (fun (name, speed, test) ->
          (Printf.sprintf "%s [%s]" name label, speed, test poller))
        (mk ()))
    pollers

let () =
  Alcotest.run "service_server"
    [ ("serving",
       [ ("basic ops and error replies", `Quick, test_basic_ops);
         ("ADD: exact sums, envelope, rejection", `Quick, test_add_op);
         ("k-counter accuracy self-check", `Quick, test_kcounter_accuracy) ]
       @ per_poller (fun () ->
             [ ("loadgen against 4 shards", `Quick, test_loadgen_4_shards) ]));
      ("fusion",
       [ ("objects-level defer/apply/batch_read", `Quick,
          test_objects_fusion_deterministic);
         ("pipelined burst through the fused drain", `Quick,
          test_pipelined_fusion_burst) ]);
      ("backpressure",
       [ ("pending bound answers BUSY, stays up", `Quick,
          test_backpressure_bounded);
         ("sequential load never trips pending bound", `Quick,
          test_max_pending_bound) ]);
      ("inline",
       [ ("window 1 on one loop: no wake-ups", `Quick,
          test_no_wakeups_at_window_1);
         ("shard lock under cross-loop writes", `Quick,
          test_cross_loop_contention) ]);
      ("lifecycle",
       per_poller (fun () ->
           [ ("connection churn leaks no fds", `Quick, test_connection_churn);
             ("max_conns enforced with O(1) accounting", `Quick,
              test_max_conns_enforced);
             ("accuracy and ownership across 4 io domains", `Quick,
              test_multi_io_domain_load) ]));
      ("chaos",
       [ ("clients killed mid-request", `Quick, test_kill_client_mid_request) ])
    ]
