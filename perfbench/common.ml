(* Shared helpers of the benchmark: the clock, seeded randomness,
   order statistics, growable sample vectors, a small JSON reader for
   the server's STATS reply, and /proc readings. *)

(* CLOCK_MONOTONIC in nanoseconds, read through bechamel's noalloc
   stub: no boxing, no wall-clock steps, 1 ns resolution. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

exception Abort of string
(* A run that cannot produce a complete record: [Bench] prints the
   message and exits non-zero without a result line. *)

let abort fmt = Printf.ksprintf (fun s -> raise (Abort s)) fmt

(* One independent stream per (seed, workload, connection). *)
let rng ~seed ~workload ~conn =
  Random.State.make [| seed; Hashtbl.hash workload; conn; 0x5eed |]

(* ---- growable int vectors (raw samples) ---- *)

type vec = { mutable a : int array; mutable n : int }

let vec cap = { a = Array.make (max 16 cap) 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let vec_concat vs =
  let total = List.fold_left (fun s v -> s + v.n) 0 vs in
  let out = Array.make total 0 in
  let _ =
    List.fold_left
      (fun off v ->
        Array.blit v.a 0 out off v.n;
        off + v.n)
      0 vs
  in
  out

(* ---- order statistics ---- *)

(* Nearest-rank quantile of an already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float n)) - 1)))

let median_int a =
  let b = Array.copy a in
  Array.sort Int.compare b;
  quantile_sorted b 0.5

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The k-envelope: a value served while the exact value lay in
   [lo, hi] must satisfy lo/k <= v <= hi*k. *)
let within ~k ~lo ~hi v = v * k >= lo && v <= hi * k

let ratio num den = if den = 0 then 0.0 else float num /. float den

(* ---- throughput windows ----
   Each worker adds its completed ops to the window of the current
   moment; the reported rate is the median window, so one stall of the
   shared host moves one window, not the run's figure. *)

let window_ns = 250_000_000

type windows = int array

let windows ~seconds : windows = Array.make ((seconds * 4) + 8) 0

let add_window (w : windows) ~start ~now count =
  let i = (now - start) / window_ns in
  if i >= 0 && i < Array.length w then w.(i) <- w.(i) + count

(* Ops/s of each full window inside [start, stop); a phase shorter than
   one window is one window of its own length. *)
let window_rates (ws : windows list) ~start ~stop =
  let count i = List.fold_left (fun s w -> s + w.(i)) 0 ws in
  match (stop - start) / window_ns with
  | 0 -> [ float (count 0) *. 1e9 /. float (max 1 (stop - start)) ]
  | full -> List.init full (fun i -> float (count i) *. 1e9 /. float window_ns)

let rec rm_rf path =
  try
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
  with Unix.Unix_error _ | Sys_error _ -> ()

(* ---- /proc ---- *)

let proc_status_kb ~pid key =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        let kl = String.length key in
        if String.length line > kl && String.sub line 0 kl = key then
          Scanf.sscanf (String.sub line (kl + 1) (String.length line - kl - 1))
            " %d" (fun kb -> kb)
        else loop ()
    in
    let v = loop () in
    close_in ic;
    v

let llc_bytes () =
  let path = "/sys/devices/system/cpu/cpu0/cache/index3/size" in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let s = String.trim (input_line ic) in
    close_in ic;
    (try Scanf.sscanf s "%d%c" (fun n u ->
         match u with 'K' -> n lsl 10 | 'M' -> n lsl 20 | _ -> n)
     with _ -> 0)

(* ---- a minimal JSON reader (the STATS reply) ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json s =
  let n = String.length s in
  let i = ref 0 in
  let fail () = abort "STATS reply is not JSON (offset %d)" !i in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    then (incr i; ws ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail () in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' then begin
        incr i;
        if !i >= n then fail ();
        (match s.[!i] with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> Buffer.add_char b '?'; i := !i + 4
         | c -> Buffer.add_char b c)
      end
      else Buffer.add_char b s.[!i];
      incr i
    done;
    expect '"';
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then fail ();
    match s.[!i] with
    | '{' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = '}' then (incr i; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = ']' then (incr i; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
      let st = !i in
      while
        !i < n
        && (match s.[!i] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr i
      done;
      (match float_of_string_opt (String.sub s st (!i - st)) with
       | Some f -> Num f
       | None -> fail ())
  in
  value ()

let member k = function
  | Obj l -> (try List.assoc k l with Not_found -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_int = function Num f -> int_of_float f | _ -> 0

(* [path j ["a"; "b"]] = j.a.b as an int (0 when absent). *)
let path j keys = to_int (List.fold_left (fun j k -> member k j) j keys)

(* Sum of an int field over the rows of a top-level array. *)
let sum_rows j table keys =
  List.fold_left (fun s row -> s + path row keys) 0 (to_list (member table j))

(* ---- the result record ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_float x.value) x.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* The run's switches, as parsed from the command line. *)
type opts = {
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;  (* small pool and streams: the self-test *)
  forge : bool;  (* corrupt one served value before it is checked *)
  widen : bool;  (* objects run with k*k but are checked against k *)
  run_dir : string;  (* this run's fresh scratch directory, removed at exit *)
  trace_file : string;  (* where a traced run writes its spans *)
}

(* A run is [segments] segments. Each one sets up afresh (a new pool or
   a new server: new pages, new thread placement), measures, checks
   and tears down; the run reports medians over them, so one unlucky
   set-up moves one segment, not the run. *)
let segments = 6

(* Length of one timed phase: the run's share of one segment; a traced
   run splits it into an untraced and a traced half. *)
let phase_ns (o : opts) =
  o.seconds * 1_000_000_000 / segments / if o.trace then 2 else 1

type segment = {
  g_setup_s : float;  (* set-up start to the first timed op *)
  g_rates : float list;  (* ops/s per window of the untraced phase *)
  g_lat : int array;  (* raw latency samples, ns *)
  g_rss_kb : int;  (* peak resident set *)
  g_attempted : int;
  g_failed : int;
  g_violations : int;  (* correctness failures, a subset of [g_failed] *)
  g_layers : metric list;  (* traced runs only *)
  g_notes : string list;  (* footprint, server flags: the run's record *)
}

(* What a run reports: medians over its segments. *)
type outcome = {
  setup_s : float;
  ops_per_s : float;  (* median window over all segments *)
  rates : float list;
  seg_rates : float list;  (* each segment's median window *)
  lat_p50_us : float;  (* per-segment percentile, median over segments *)
  lat_p99_us : float;
  lat_samples : int;
  rss_mb : float;
  attempted : int;
  failed : int;
  violations : int;
  layers : metric list;  (* per metric, the median over segments *)
  notes : string list;
}

let aggregate segs =
  let med f = median_float (List.map f segs) in
  let sum f = List.fold_left (fun s g -> s + f g) 0 segs in
  (* Percentiles per segment, then the median over segments: one host
     hiccup in one segment does not move the run's p99. *)
  List.iter (fun g -> Array.sort Int.compare g.g_lat) segs;
  let us q = med (fun g -> float (quantile_sorted g.g_lat q)) /. 1e3 in
  let rates = List.concat_map (fun g -> g.g_rates) segs in
  let layer x =
    let vals =
      List.filter_map
        (fun g -> List.find_opt (fun y -> y.name = x.name) g.g_layers)
        segs
    in
    m x.name x.unit_ (median_float (List.map (fun y -> y.value) vals))
  in
  { setup_s = med (fun g -> g.g_setup_s);
    ops_per_s = median_float rates;
    rates;
    seg_rates = List.map (fun g -> median_float g.g_rates) segs;
    lat_p50_us = us 0.50;
    lat_p99_us = us 0.99;
    lat_samples = sum (fun g -> Array.length g.g_lat);
    rss_mb = med (fun g -> float g.g_rss_kb) /. 1024.0;
    attempted = sum (fun g -> g.g_attempted);
    failed = sum (fun g -> g.g_failed);
    violations = sum (fun g -> g.g_violations);
    layers = (match segs with [] -> [] | g :: _ -> List.map layer g.g_layers);
    notes = (match segs with [] -> [] | g :: _ -> g.g_notes) }
