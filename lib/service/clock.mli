(** The server's clock for its own timings: [CLOCK_MONOTONIC] in
    integer nanoseconds.

    Never steps backwards, so a difference of two reads is a valid
    duration even across wall-clock adjustments, and a read allocates
    nothing ([[@@noalloc]], untagged return) — the hot path can stamp
    every cycle without touching the OCaml heap. The origin is
    arbitrary (boot time on Linux): only differences are meaningful. *)

val now_ns : unit -> int
