(** Alias of {!Persist.Obuf}, kept so service-internal callers (and
    tests) keep their [Service.Obuf] paths. See [lib/persist/obuf.mli]
    for the full contract. *)

type t = Persist.Obuf.t

val create : ?size:int -> unit -> t
val length : t -> int
val capacity : t -> int
val bytes : t -> Bytes.t
val clear : t -> unit
val truncate : t -> int -> unit
val reserve : t -> int -> unit
val add_u8 : t -> int -> unit
val add_i32_be : t -> int -> unit
val add_i64_be : t -> int -> unit
val add_varint : t -> int -> unit
val varint_len : int -> int
val add_string : t -> string -> unit
val contents : t -> string
