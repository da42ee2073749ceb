(* In-memory spans of the traced run.

   A span is (request id, name, parent name, start ns, end ns); its
   parent is the span of the same request id named [parent] (-1 for a
   root). One store per recording domain, so recording never
   synchronises. The store keeps the newest [cap] spans (a power of
   two, small enough to stay in cache) for percentiles and the span
   file, and exact per-name counts and total durations over every span
   recorded, from which per-layer self times are derived. Stores are
   written out after the timed phase. *)

type t = {
  mask : int;
  id : int array;
  name : int array;
  parent : int array;
  start : int array;
  stop : int array;
  mutable n : int;  (* spans recorded *)
  count : int array;  (* per name *)
  total_ns : int array;  (* per name *)
}

let max_names = 8

let create cap =
  let rec pow2 x = if x >= cap then x else pow2 (2 * x) in
  let cap = pow2 1 in
  let mk () = Array.make cap 0 in
  { mask = cap - 1; id = mk (); name = mk (); parent = mk (); start = mk ();
    stop = mk (); n = 0; count = Array.make max_names 0;
    total_ns = Array.make max_names 0 }

let record t ~id ~name ~parent ~start ~stop =
  let i = t.n land t.mask in
  Array.unsafe_set t.id i id;
  Array.unsafe_set t.name i name;
  Array.unsafe_set t.parent i parent;
  Array.unsafe_set t.start i start;
  Array.unsafe_set t.stop i stop;
  t.n <- t.n + 1;
  t.count.(name) <- t.count.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + (stop - start)

let stored t = min t.n (t.mask + 1)

let iter ts f =
  List.iter
    (fun t ->
      for j = t.n - stored t to t.n - 1 do
        let i = j land t.mask in
        f t.id.(i) t.name.(i) t.parent.(i) t.start.(i) t.stop.(i)
      done)
    ts

(* Durations of the stored spans with one of [names]. *)
let durations ts names =
  let v = Common.vec 1024 in
  iter ts (fun _ nm _ s e -> if List.mem nm names then Common.push v (e - s));
  Array.sub v.Common.a 0 v.Common.n

let p50_ns ts names =
  let d = durations ts names in
  if Array.length d = 0 then 0.0 else float (Common.median_int d)

(* Exact totals over every span recorded, summed over stores. *)
let count ts name = List.fold_left (fun s t -> s + t.count.(name)) 0 ts
let total_ns ts name = List.fold_left (fun s t -> s + t.total_ns.(name)) 0 ts

(* One line per stored span, oldest first per store. *)
let write ts ~names path =
  let oc = open_out path in
  output_string oc "# id\tname\tparent\tstart_ns\tend_ns\n";
  iter ts (fun id nm parent s e ->
      Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\n" id names.(nm)
        (if parent < 0 then "-" else names.(parent)) s e);
  close_out oc
