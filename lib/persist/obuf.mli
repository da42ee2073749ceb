(** Growable output byte buffer whose storage is written out directly
    — the service's zero-copy alternative to [Buffer.t] on the response
    flush path and the WAL's staging buffer.

    [Buffer.to_bytes] copies the whole contents on every flush; here
    the owner hands {!bytes} straight to [write(2)] and {!clear}s the
    buffer once it drained, keeping the capacity. Once a buffer has
    grown to the steady-state volume, the encode/write/clear cycle
    allocates zero heap words (asserted by a [Gc.minor_words] test).

    Not thread-safe: callers serialize access (a server connection's
    buffer belongs to its I/O loop; the WAL holds its mutex). *)

type t

val create : ?size:int -> unit -> t
(** Fresh buffer with [size] (default 4096) bytes of capacity.
    @raise Invalid_argument if [size < 1]. *)

val length : t -> int
(** Bytes currently held. *)

val capacity : t -> int

val bytes : t -> Bytes.t
(** The underlying storage; valid data is [[0, length)]. The reference
    is invalidated by the next growing append. *)

val clear : t -> unit
(** Drop the contents, keep the capacity. *)

val truncate : t -> int -> unit
(** Rewind the length to [n], dropping everything appended after that
    offset (the frame builder's abort of an empty frame).
    @raise Invalid_argument unless [0 <= n <= length]. *)

val reserve : t -> int -> unit
(** Ensure capacity for [n] more bytes (doubling growth). *)

val add_u8 : t -> int -> unit
val add_i32_be : t -> int -> unit

val add_i64_be : t -> int -> unit
(** Append the low 64 bits of an OCaml [int], big-endian. *)

val add_varint : t -> int -> unit
(** Append an unsigned LEB128 varint of the int's 63-bit pattern
    (7 data bits per byte, low group first, high bit = continuation).
    Non-negative values take [1 + bits/7] bytes — 1 byte below 128,
    which is the common case for gossip slot values and dense object
    ids; negative ints emit the full 9-byte pattern and round-trip
    exactly. Allocation-free once capacity suffices. *)

val varint_len : int -> int
(** Encoded size in bytes of {!add_varint}[ v] (1..9), without
    writing anything — used for frame-budget accounting. *)

val add_string : t -> string -> unit

val contents : t -> string
(** Copy out the valid bytes (tests and debugging; allocates). *)
