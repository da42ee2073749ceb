external now_ns : unit -> (int[@untagged])
  = "approx_clock_now_ns_byte" "approx_clock_now_ns"
[@@noalloc]
