(* objects-zipf: the paper's objects in-process, over a pool larger than
   the last-level cache.

   Why: it is the only workload where Algorithm 1 and Algorithm 2
   (Mcore.Mc_kcounter / Mc_kmaxreg over the Atomic backend) carry most
   of the time, so it is the one a change to [mcore] or [algo] must
   move. Zipf(0.99) popularity keeps a hot head in cache while the tail
   misses, so both the validated-cache fast path and cold loads show.

   Load: 2 domains (pids 0 and 1, n = 2, k = 4), each a closed loop
   over its own stream of 70% reads, 25% increments and 5% max-writes.
   Writes carry the domain's op index + 1, so each domain's writes
   rise. *)

open Common

let n = 2
let k = 4
let bound = 1 lsl 40  (* max-register bound; op indices stay far below *)
let stream_len = 1 lsl 20  (* ops per domain stream, cycled *)
let read_pm = 700 and inc_pm = 250  (* writes: the remaining 50 *)

(* Op encoding: (pair lsl 2) lor kind. *)
let op_read_ctr = 0 and op_read_reg = 1 and op_inc = 2 and op_write = 3

type pool = { ctr : Mcore.Mc_kcounter.t array; reg : Mcore.Mc_kmaxreg.t array }

let make_pool ~pairs ~obj_k =
  { ctr = Array.init pairs (fun _ -> Mcore.Mc_kcounter.create ~n ~k:obj_k ());
    reg = Array.init pairs (fun _ -> Mcore.Mc_kmaxreg.create ~m:bound ~k:obj_k ()) }

(* Zipf(s) ranks over [0, pairs): inverse CDF by binary search. A
   seeded permutation maps rank to pair, so the hot head is scattered
   through the pool's allocation order instead of packed at its
   start. *)
let zipf_sampler rng ~pairs ~s =
  let cdf = Array.make pairs 0.0 in
  let acc = ref 0.0 in
  for r = 0 to pairs - 1 do
    acc := !acc +. (1.0 /. Float.pow (float (r + 1)) s);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let perm = Array.init pairs Fun.id in
  for i = pairs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  fun rng ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (pairs - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let make_streams ~seed ~pairs ~len =
  (* The rank permutation is shared (one pool); streams are per domain. *)
  let sample = zipf_sampler (rng ~seed ~workload:"objects-zipf" ~conn:(-1))
      ~pairs ~s:0.99 in
  Array.init n (fun d ->
      let r = rng ~seed ~workload:"objects-zipf" ~conn:d in
      Array.init len (fun _ ->
          let pair = sample r in
          let x = Random.State.int r 1000 in
          let kind =
            if x < read_pm then
              if Random.State.bool r then op_read_ctr else op_read_reg
            else if x < read_pm + inc_pm then op_inc
            else op_write
          in
          (pair lsl 2) lor kind))

(* One op of domain [d] at stream position [i]. *)
let[@inline] apply pool d op i =
  let pair = op lsr 2 in
  match op land 3 with
  | 0 -> ignore (Sys.opaque_identity (Mcore.Mc_kcounter.read_fast
                                        (Array.unsafe_get pool.ctr pair) ~pid:d))
  | 1 -> ignore (Sys.opaque_identity (Mcore.Mc_kmaxreg.read
                                        (Array.unsafe_get pool.reg pair)))
  | 2 -> Mcore.Mc_kcounter.increment (Array.unsafe_get pool.ctr pair) ~pid:d
  | _ -> Mcore.Mc_kmaxreg.write (Array.unsafe_get pool.reg pair) (i + 1)

let span_names = [| "mcore.read"; "mcore.read"; "mcore.inc"; "mcore.write" |]

(* Per-domain state of one segment. [pos] is the domain's op index over
   the segment (warm-up included): the correctness accounting replays
   the stream up to it. *)
type worker = {
  d : int;
  stream : int array;
  mutable pos : int;
  win : windows;
  lat : vec;
  spans : Trace.t;
}

let batch = 256

(* Run until [deadline]. Untraced: every 64th op is timed on its own,
   the raw latency sample. Traced: every op is a span. *)
let run_phase pool w ~start ~deadline ~traced =
  let mask = stream_len - 1 in
  let stop = ref false in
  while not !stop do
    if traced then
      for _ = 1 to batch do
        let i = w.pos in
        let op = Array.unsafe_get w.stream (i land mask) in
        let t0 = now_ns () in
        apply pool w.d op i;
        let t1 = now_ns () in
        Trace.record w.spans ~id:((w.d lsl 48) lor i) ~name:(op land 3)
          ~parent:(-1) ~start:t0 ~stop:t1;
        w.pos <- i + 1
      done
    else
      for _ = 1 to batch / 64 do
        let i = w.pos in
        let t0 = now_ns () in
        apply pool w.d (Array.unsafe_get w.stream (i land mask)) i;
        push w.lat (now_ns () - t0);
        for j = i + 1 to i + 63 do
          apply pool w.d (Array.unsafe_get w.stream (j land mask)) j
        done;
        w.pos <- i + 64
      done;
    let t = now_ns () in
    add_window w.win ~start ~now:t batch;
    if t >= deadline then stop := true
  done

(* Exact per-object state the streams applied: increments per counter
   and the largest value written per max register. *)
let exact_state ~pairs workers =
  let incs = Array.make pairs 0 and maxw = Array.make pairs 0 in
  List.iter
    (fun w ->
      let full = w.pos / stream_len and rest = w.pos mod stream_len in
      Array.iteri
        (fun j op ->
          let pair = op lsr 2 in
          let times = full + if j < rest then 1 else 0 in
          if op land 3 = op_inc then incs.(pair) <- incs.(pair) + times
          else if op land 3 = op_write && times > 0 then
            (* last execution of position j: cycle (times - 1) *)
            let idx = ((times - 1) * stream_len) + j in
            maxw.(pair) <- max maxw.(pair) (idx + 1))
        w.stream)
    workers;
  (incs, maxw)

(* Algorithm steps per op, exact: a fixed prefix of each stream run on
   the simulator's instances of the same algorithms (n = 2, k = 4),
   seeded random schedule. *)
let sim_steps_per_op ~seed streams ~prefix =
  let exec = Sim.Exec.create ~trace_steps:false ~n () in
  let ctrs = Hashtbl.create 1024 and regs = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      for j = 0 to prefix - 1 do
        let pair = s.(j) lsr 2 in
        if not (Hashtbl.mem ctrs pair) then begin
          Hashtbl.add ctrs pair (Approx.Kcounter.create exec ~n ~k ());
          Hashtbl.add regs pair (Approx.Kmaxreg.create exec ~n ~m:bound ~k ())
        end
      done)
    streams;
  let programs =
    Array.map
      (fun s pid ->
        for j = 0 to prefix - 1 do
          let op = s.(j) in
          let c = Hashtbl.find ctrs (op lsr 2) and r = Hashtbl.find regs (op lsr 2) in
          match op land 3 with
          | 0 -> Replay.sim_read (fun () -> Approx.Kcounter.read c ~pid)
          | 1 -> Replay.sim_read (fun () -> Approx.Kmaxreg.read r ~pid)
          | 2 -> Replay.sim_op "inc" (fun () -> Approx.Kcounter.increment c ~pid)
          | _ -> Replay.sim_op "write" (fun () -> Approx.Kmaxreg.write r ~pid (j + 1))
        done)
      streams
  in
  ignore (Sim.Exec.run exec ~programs ~policy:(Sim.Schedule.Random seed) ());
  Sim.Exec.amortized exec

let segment (o : opts) =
  let pairs = if o.smoke then 2_000 else 12_000 in
  let warmup = if o.smoke then 1 lsl 14 else 1 lsl 18 in
  let obj_k = if o.widen then k * k else k in
  Gc.full_major ();
  let rss0 = proc_status_kb ~pid:0 "VmRSS" in
  let t0 = now_ns () in
  let pool = make_pool ~pairs ~obj_k in
  let streams = make_streams ~seed:o.seed ~pairs ~len:stream_len in
  let workers =
    Array.to_list
      (Array.mapi
         (fun d stream ->
           { d; stream; pos = 0; win = windows ~seconds:o.seconds;
             lat = vec (1 lsl 16);
             spans = Trace.create (if o.trace then 1 lsl 13 else 1) })
         streams)
  in
  (* Warm-up: every stream's first ops touch the pool once, single
     domain, so lazy growth and first-touch faults are set-up. *)
  List.iter
    (fun w ->
      for i = 0 to warmup - 1 do
        apply pool w.d w.stream.(i land (stream_len - 1)) i
      done;
      w.pos <- warmup)
    workers;
  let setup_s = float (now_ns () - t0) /. 1e9 in
  let footprint_kb = proc_status_kb ~pid:0 "VmRSS" - rss0 in
  (* One timed phase: both domains start together and stop at the
     deadline. *)
  let phase ~traced =
    let go = Atomic.make false and ready = Atomic.make 0 in
    let start = Atomic.make 0 in
    let body w () =
      Atomic.incr ready;
      while not (Atomic.get go) do Domain.cpu_relax () done;
      let s = Atomic.get start in
      run_phase pool w ~start:s ~deadline:(s + phase_ns o) ~traced
    in
    let w0, rest = (List.hd workers, List.tl workers) in
    List.iter (fun w -> Array.fill w.win 0 (Array.length w.win) 0) workers;
    let doms = List.map (fun w -> Domain.spawn (body w)) rest in
    while Atomic.get ready < List.length rest do Domain.cpu_relax () done;
    let t_start = now_ns () in
    Atomic.set start t_start;
    Atomic.set go true;
    body w0 ();
    List.iter Domain.join doms;
    let stop = now_ns () in
    (window_rates (List.map (fun w -> w.win) workers) ~start:t_start ~stop,
     stop - t_start)
  in
  let rates, _ = phase ~traced:false in
  let traced = if o.trace then Some (phase ~traced:true) else None in
  (* Correctness at quiescence: every object against the exact state
     its streams applied. *)
  let incs, maxw = exact_state ~pairs workers in
  let violations = ref 0 in
  for p = 0 to pairs - 1 do
    let c = Mcore.Mc_kcounter.read pool.ctr.(p) ~pid:0 in
    let c = if o.forge && p = 0 then (incs.(p) * k * k) + k + 1 else c in
    let r = Mcore.Mc_kmaxreg.read pool.reg.(p) in
    if not (within ~k ~lo:incs.(p) ~hi:incs.(p) c) then incr violations;
    if not (within ~k ~lo:maxw.(p) ~hi:maxw.(p) r) then incr violations
  done;
  let layers =
    match traced with
    | None -> []
    | Some (traced_rates, traced_ns) ->
      let untraced = median_float rates and traced_rate = median_float traced_rates in
      let spans = List.map (fun w -> w.spans) workers in
      Trace.write spans ~names:span_names o.trace_file;
      let sum_of f = Array.fold_left (fun s x -> s + f x) 0 in
      let both f c = f c ~pid:0 + f c ~pid:1 in
      let hits = sum_of (both Mcore.Mc_kcounter.fast_hits) pool.ctr in
      let misses = sum_of (both Mcore.Mc_kcounter.fast_misses) pool.ctr in
      let switches = sum_of Mcore.Mc_kcounter.switches_set pool.ctr in
      let total_incs = Array.fold_left ( + ) 0 incs in
      (* Self time: the mcore spans have no children; the harness's own
         time is the domains' traced wall time minus those spans. *)
      let kinds = [ op_read_ctr; op_read_reg; op_inc; op_write ] in
      let spanned = List.fold_left (fun s nm -> s + Trace.count spans nm) 0 kinds in
      let mcore_ns = List.fold_left (fun s nm -> s + Trace.total_ns spans nm) 0 kinds in
      let per_op x = float x /. float (max 1 spanned) in
      [ m "mcore.inc_ns" "ns" (Trace.p50_ns spans [ op_inc ]);
        m "mcore.read_ns" "ns" (Trace.p50_ns spans [ op_read_ctr; op_read_reg ]);
        m "mcore.write_ns" "ns" (Trace.p50_ns spans [ op_write ]);
        m "mcore.fast_hit_frac" "ratio" (ratio hits (hits + misses));
        m "mcore.switches_per_kinc" "count" (ratio (switches * 1000) total_incs);
        m "mcore.self_ns" "ns" (per_op mcore_ns);
        m "bench.self_us" "us" (per_op ((traced_ns * n) - mcore_ns) /. 1e3);
        m "algo.steps_per_op" "steps"
          (sim_steps_per_op ~seed:o.seed streams ~prefix:(if o.smoke then 512 else 4096));
        m "trace.untraced_ops_per_s" "1/s" untraced;
        m "trace.traced_ops_per_s" "1/s" traced_rate;
        m "trace.overhead_frac" "ratio" ((untraced -. traced_rate) /. untraced);
        m "trace.clock_ns" "ns" (Replay.clock_ns ()) ]
  in
  let llc = llc_bytes () in
  let executed = List.fold_left (fun s w -> s + w.pos) 0 workers in
  { g_setup_s = setup_s;
    g_rates = rates;
    g_lat = vec_concat (List.map (fun w -> w.lat) workers);
    g_rss_kb = proc_status_kb ~pid:0 "VmHWM";
    g_attempted = executed + (2 * pairs);
    g_failed = !violations;
    g_violations = !violations;
    g_layers = layers;
    g_notes =
      [ Printf.sprintf "pool: %d k-counters + %d k-max-registers (n=%d, k=%d%s), \
                        footprint %.1f MiB vs LLC %.1f MiB (%.1fx)"
          pairs pairs n k
          (if o.widen then Printf.sprintf ", objects built with k=%d" obj_k else "")
          (float footprint_kb /. 1024.0) (float llc /. 1048576.0)
          (if llc = 0 then 0.0 else float (footprint_kb * 1024) /. float llc);
        "latency: every 64th op timed alone, one clock read included" ] }
