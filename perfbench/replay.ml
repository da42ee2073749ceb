(* Per-layer replays of a service workload's own op stream, for the
   traced run: the same ops, fed straight to the public functions of
   one layer at a time, each call a span timed on the monotonic clock
   (so every figure includes one clock read; [trace.clock_ns] gives
   that cost). These layers run inside the server child, where the
   client cannot see them separately. *)

open Common

let p50 v = if v.n = 0 then 0.0 else float (median_int (Array.sub v.a 0 v.n))

let mean v =
  if v.n = 0 then 0.0
  else float (Array.fold_left ( + ) 0 (Array.sub v.a 0 v.n)) /. float v.n

(* Cost of an empty span: the median of back-to-back clock reads. *)
let clock_ns () =
  let v = vec 10_000 in
  for _ = 1 to 10_000 do
    let t0 = now_ns () in
    push v (now_ns () - t0)
  done;
  p50 v

(* [timed v f] runs [f ()] as one span recorded into [v]. *)
let[@inline] timed v f =
  let t0 = now_ns () in
  let r = f () in
  push v (now_ns () - t0);
  r

(* One simulated operation: its steps are charged to it, which is what
   [Sim.Exec.amortized] divides by. *)
let sim_op name f = Sim.Api.op_unit ~name f
let sim_read f = ignore (Sim.Api.op_int ~name:"read" f)

let prefix_ops ~streams ~len =
  let per = len / List.length streams in
  Array.concat (List.map (fun s -> Array.sub s 0 per) streams)

(* [request op ~id ~value] is the workload's own request builder; ops
   are encoded (object lsl 2) lor kind, kinds read/inc/add/write. *)
let service_layers ~spec_window ~add_delta ~request ~names ~exact ~is_max
    ~durable ~k ~streams ~seed ~smoke ~dir =
  let ops = prefix_ops ~streams ~len:(if smoke then 2_000 else 20_000) in
  let name op = names.(op lsr 2) in
  let write_value i = i + 1 in
  let request i op = request op ~id:(i land 0xffff) ~value:(write_value i) in
  (* wire: encode the request and its reply frame; decode both back. *)
  let enc = vec 1024 and dec = vec 1024 and bytes = ref 0 in
  let b = Buffer.create 256 in
  Array.iteri
    (fun i op ->
      let req = request i op in
      let resp = Service.Wire.Value { id = i land 0xffff; value = i } in
      Buffer.clear b;
      timed enc (fun () ->
          Service.Wire.encode_request b req;
          Service.Wire.encode_response b resp);
      let frame = Buffer.to_bytes b in
      let len = Bytes.length frame in
      bytes := !bytes + len;
      timed dec (fun () ->
          match Service.Wire.decode_request frame ~off:0 ~len with
          | Service.Wire.Decoded (_, used) -> (
              match Service.Wire.decode_response frame ~off:used ~len:(len - used) with
              | Service.Wire.Decoded _ -> ()
              | _ -> abort "wire replay: reply frame did not decode")
          | _ -> abort "wire replay: request frame did not decode"))
    ops;
  (* objects + persist: apply through the server's object table at
     pid 0; log what the envelope-aware rule makes due, flushing the
     WAL once per client window, as a drain would. *)
  let metrics = Service.Metrics.create ~shards:1 ~io_domains:1 () in
  let table =
    Service.Objects.build ~metrics ~shards:1
      (Service.Objects.default_specs ~counters:4 ~k)
  in
  let wal_dir = Filename.concat dir "wal-replay" in
  let wal =
    Persist.Wal.open_ ~dir:wal_dir ~fsync:Persist.Wal.Never
      ~scan:(Persist.Wal.scan ~dir:wal_dir)
  in
  let apply = vec 1024 and append = vec 1024 in
  let batch_appends = ref 0 and batch_ns = ref 0 in
  Array.iteri
    (fun i op ->
      let obj = Service.Objects.get table (Service.Objects.find_id table (name op)) in
      timed apply (fun () ->
          match op land 3 with
          | 0 -> ignore (Sys.opaque_identity (Service.Objects.read obj ~pid:0))
          | 1 -> ignore (Service.Objects.inc obj ~pid:0)
          | 2 ->
            ignore (Service.Objects.defer obj ~via_add:true add_delta);
            Service.Objects.apply_pending obj ~pid:0
          | _ -> ignore (Service.Objects.write obj ~pid:0 (write_value i)));
      if op land 3 <> 0 && Service.Objects.persist_due obj ~every_op:false then begin
        let t0 = now_ns () in
        Persist.Wal.append wal
          ((Service.Objects.spec obj).Service.Objects.name,
           Service.Objects.persist_export obj);
        Service.Objects.mark_persisted obj;
        batch_ns := !batch_ns + (now_ns () - t0);
        incr batch_appends
      end;
      if (i + 1) mod spec_window = 0 then begin
        if !batch_appends > 0 then begin
          let t0 = now_ns () in
          Persist.Wal.flush wal;
          push append (!batch_ns + (now_ns () - t0))
        end;
        batch_appends := 0;
        batch_ns := 0
      end)
    ops;
  Persist.Wal.close wal;
  (* mcore: the approximate objects alone (the exact kinds are not the
     paper's), as the shard runs them: n = 1, pid 0. *)
  let ctrs = Array.map (fun _ -> Mcore.Mc_kcounter.create ~n:1 ~k ()) names in
  let regs = Array.map (fun _ -> Mcore.Mc_kmaxreg.create ~m:(1 lsl 30) ~k ()) names in
  let inc = vec 1024 and read = vec 1024 and write = vec 1024 in
  let incs = ref 0 in
  Array.iteri
    (fun i op ->
      let o = op lsr 2 in
      if not exact.(o) then
        match (op land 3, is_max.(o)) with
        | 0, false ->
          timed read (fun () -> ignore (Sys.opaque_identity (Mcore.Mc_kcounter.read_fast ctrs.(o) ~pid:0)))
        | 0, true ->
          timed read (fun () -> ignore (Sys.opaque_identity (Mcore.Mc_kmaxreg.read regs.(o))))
        | 1, _ -> incr incs; timed inc (fun () -> Mcore.Mc_kcounter.increment ctrs.(o) ~pid:0)
        | 2, _ ->
          incs := !incs + add_delta;
          timed inc (fun () -> Mcore.Mc_kcounter.add ctrs.(o) ~pid:0 add_delta)
        | _ -> timed write (fun () -> Mcore.Mc_kmaxreg.write regs.(o) (write_value i)))
    ops;
  let sum f = Array.fold_left (fun s c -> s + f c) 0 ctrs in
  let hits = sum (fun c -> Mcore.Mc_kcounter.fast_hits c ~pid:0) in
  let misses = sum (fun c -> Mcore.Mc_kcounter.fast_misses c ~pid:0) in
  let mcore_ops = inc.n + read.n + write.n in
  (* algo: the same approximate ops on the simulator's instances. *)
  let exec = Sim.Exec.create ~trace_steps:false ~n:1 () in
  let sctr = Array.map (fun _ -> Approx.Kcounter.create exec ~n:1 ~k ()) names in
  let sreg = Array.map (fun _ -> Approx.Kmaxreg.create exec ~n:1 ~m:(1 lsl 30) ~k ()) names in
  let program pid =
    Array.iteri
      (fun i op ->
        let o = op lsr 2 in
        if not exact.(o) then
          match (op land 3, is_max.(o)) with
          | 0, false -> sim_read (fun () -> Approx.Kcounter.read sctr.(o) ~pid)
          | 0, true -> sim_read (fun () -> Approx.Kmaxreg.read sreg.(o) ~pid)
          | 1, _ -> sim_op "inc" (fun () -> Approx.Kcounter.increment sctr.(o) ~pid)
          | 2, _ ->
            sim_op "add" (fun () ->
                for _ = 1 to add_delta do Approx.Kcounter.increment sctr.(o) ~pid done)
          | _ -> sim_op "write" (fun () -> Approx.Kmaxreg.write sreg.(o) ~pid (write_value i)))
      ops
  in
  ignore (Sim.Exec.run exec ~programs:[| program |] ~policy:(Sim.Schedule.Random seed) ());
  [ m "wire.encode_ns" "ns" (p50 enc);
    m "wire.decode_ns" "ns" (p50 dec);
    m "wire.bytes_per_op" "B" (ratio !bytes (Array.length ops));
    m "objects.apply_ns" "ns" (p50 apply);
    m "mcore.fast_hit_frac" "ratio" (ratio hits (hits + misses));
    m "mcore.switches_per_kinc" "count"
      (ratio (sum Mcore.Mc_kcounter.switches_set * 1000) !incs);
    m "mcore.self_ns" "ns"
      (if mcore_ops = 0 then 0.0
       else ((mean inc *. float inc.n) +. (mean read *. float read.n)
             +. (mean write *. float write.n)) /. float mcore_ops);
    m "algo.steps_per_op" "steps" (Sim.Exec.amortized exec);
    m "trace.clock_ns" "ns" (clock_ns ()) ]
  (* A kind of op the stream lacks, or the WAL of a server without one,
     is not exercised: no figure. *)
  @ List.concat_map
      (fun (name, v) -> if v.n = 0 then [] else [ m name "ns" (p50 v) ])
      [ ("mcore.inc_ns", inc); ("mcore.read_ns", read); ("mcore.write_ns", write) ]
  @ if durable then [ m "persist.append_us" "us" (p50 append /. 1e3) ] else []
