(* The repository benchmark. One run measures one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 an
   untraced half and a traced half, and the per-layer metrics. The last
   line of standard output is the JSON record. Exit status: 0 when every
   correctness check passed, 1 when one failed (the record says which
   ops), 2 when the run could not complete (no record). Normally
   started through perfbench/run.py, which builds it first. *)

open Common

let workloads =
  [ ("objects-zipf", Zipf_workload.segment);
    ("rpc-roundtrip", Svc_workload.segment Svc_workload.rpc_roundtrip);
    ("durable-batch", Svc_workload.segment Svc_workload.durable_batch) ]

(* Every per-layer metric, in report order. A traced run prints all of
   them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [ ("client.send_us", "us"); ("client.flush_us", "us"); ("client.wait_us", "us");
    ("client.self_us", "us");
    ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns"); ("wire.bytes_per_op", "B");
    ("server.wakeups_per_op", "count"); ("server.cycles_per_op", "count");
    ("server.reqs_per_read", "count"); ("server.bytes_per_flush", "B");
    ("server.tasks_per_drain", "count"); ("server.busy_frac", "ratio");
    ("server.self_us", "us"); ("server.shard_latency_us", "us");
    ("objects.ops_per_apply", "count"); ("objects.read_memo_frac", "ratio");
    ("objects.cache_hit_frac", "ratio"); ("objects.apply_ns", "ns");
    ("persist.appends_per_kop", "count"); ("persist.bytes_per_op", "B");
    ("persist.flushes_per_kop", "count"); ("persist.snapshots", "count");
    ("persist.append_us", "us");
    ("mcore.inc_ns", "ns"); ("mcore.read_ns", "ns"); ("mcore.write_ns", "ns");
    ("mcore.fast_hit_frac", "ratio"); ("mcore.switches_per_kinc", "count");
    ("mcore.self_ns", "ns");
    ("algo.steps_per_op", "steps");
    ("bench.self_us", "us");
    ("trace.untraced_ops_per_s", "1/s"); ("trace.traced_ops_per_s", "1/s");
    ("trace.overhead_frac", "ratio"); ("trace.clock_ns", "ns") ]

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--smoke] [--forge] [--widen]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let smoke = ref false and forge = ref false and widen = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S timed seconds, over all segments");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--smoke", Arg.Set smoke, " small inputs (the self-test)");
      ("--forge", Arg.Set forge, " corrupt one served value (self-test)");
      ("--widen", Arg.Set widen, " run objects with k*k, check k (self-test)") ]
  in
  let die msg = prerr_endline ("bench: " ^ msg); exit 2 in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("stray " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  let segment =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      die (Printf.sprintf "unknown workload %S (have: %s)" !workload
             (String.concat ", " (List.map fst workloads)))
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then
    die ("need --seed >= 0, --seconds >= 1, --trace 0|1\n" ^ usage);
  (* Fresh scratch space per run, inside the working directory. *)
  let base = ".bench_runs" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run_dir =
    Filename.concat base (Printf.sprintf "%s-%d-%d" !workload (Unix.getpid ()) (now_ns ()))
  in
  Unix.mkdir run_dir 0o755;
  (* Cleanup runs once even when a signal handler in one domain and an
     error in another both exit; the later caller waits for it. *)
  let cleanup = Atomic.make 0 in
  at_exit (fun () ->
      if Atomic.compare_and_set cleanup 0 1 then begin
        Svc_workload.kill_all ();
        rm_rf run_dir;
        Atomic.set cleanup 2
      end
      else while Atomic.get cleanup <> 2 do Domain.cpu_relax () done);
  (* A stop request cleans up through at_exit, once. *)
  let stop_signals = [ Sys.sigterm; Sys.sigint; Sys.sighup ] in
  let on_signal _ =
    List.iter (fun s -> Sys.set_signal s Sys.Signal_ignore) stop_signals;
    exit 3
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal)) stop_signals;
  let o =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; smoke = !smoke;
      forge = !forge; widen = !widen; run_dir;
      trace_file = Filename.concat base ("trace-" ^ !workload ^ ".tsv") }
  in
  match aggregate (List.init segments (fun _ -> segment o)) with
  | exception Abort msg -> die msg
  | exception (Unix.Unix_error (e, f, a)) ->
    die (Printf.sprintf "%s(%s): %s" f a (Unix.error_message e))
  | exception (Failure msg) -> die msg
  | exception End_of_file -> die "server closed a connection"
  | r ->
    let correct = r.violations = 0 in
    Printf.printf "workload %s  seed %d  seconds %d  trace %d%s\n" !workload o.seed
      o.seconds !trace (if o.smoke then "  smoke" else "");
    List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
    let e2e =
      [ m "setup_s" "s" r.setup_s; m "ops_per_s" "1/s" r.ops_per_s;
        m "lat_p50_us" "us" r.lat_p50_us; m "lat_p99_us" "us" r.lat_p99_us;
        m "rss_mb" "MB" r.rss_mb ]
    in
    List.iter (fun x -> Printf.printf "  %-26s %14.4f %s\n" x.name x.value x.unit_) e2e;
    Printf.printf "  %-26s %14d raw samples\n" "latency" r.lat_samples;
    (match List.sort compare r.rates with
     | [] -> ()
     | lo :: _ as s ->
       Printf.printf "  %-26s %14d x %d ms: min %.0f, median %.0f, max %.0f\n"
         "ops_per_s windows" (List.length s) (window_ns / 1_000_000) lo
         r.ops_per_s (List.nth s (List.length s - 1)));
    Printf.printf "  %-26s %14s %s\n" "ops_per_s by segment" ""
      (String.concat ", " (List.map (Printf.sprintf "%.0f") r.seg_rates));
    Printf.printf "  %-26s %14.6f ratio (%d of %d ops)\n" "fail_frac"
      (ratio r.failed r.attempted) r.failed r.attempted;
    Printf.printf "  %-26s %14b (%d violation(s))\n" "correct" correct r.violations;
    let metrics =
      if not o.trace then e2e
      else begin
        List.iter
          (fun x ->
            if not (List.mem_assoc x.name per_layer) then
              die ("metric missing from the per-layer list: " ^ x.name))
          r.layers;
        Printf.printf "  per layer (traced; spans in %s):\n" o.trace_file;
        List.map
          (fun (name, unit_) ->
            match List.find_opt (fun x -> x.name = name) r.layers with
            | Some x ->
              Printf.printf "    %-26s %14.4f %s\n" name x.value unit_;
              x
            | None ->
              Printf.printf "    %-26s %14s (layer not exercised)\n" name "0";
              m name unit_ 0.0)
          per_layer
      end
    in
    print_endline
      (result_line ~correct ~attempted:(max 1 r.attempted) ~failed:r.failed metrics);
    exit (if correct then 0 else 1)
