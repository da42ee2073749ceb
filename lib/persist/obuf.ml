type t = { mutable buf : Bytes.t; mutable len : int }

let create ?(size = 4096) () =
  if size < 1 then invalid_arg "Obuf.create: size < 1";
  { buf = Bytes.create size; len = 0 }

let length t = t.len
let capacity t = Bytes.length t.buf
let bytes t = t.buf
let clear t = t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Obuf.truncate: length out of range";
  t.len <- n

let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.buf then begin
    let cap = ref (2 * Bytes.length t.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end

let add_u8 t v =
  reserve t 1;
  Bytes.set_uint8 t.buf t.len v;
  t.len <- t.len + 1

(* Big-endian stores spelled out on immediate ints: [Bytes.set_int32_be]
   / [set_int64_be] would box an [Int32.t]/[Int64.t] per call, which is
   exactly the allocation the steady-state flush path must not do. *)
let add_i32_be t v =
  reserve t 4;
  let b = t.buf and o = t.len in
  Bytes.unsafe_set b o (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (o + 3) (Char.unsafe_chr (v land 0xff));
  t.len <- o + 4

let add_i64_be t v =
  reserve t 8;
  let b = t.buf and o = t.len in
  Bytes.unsafe_set b o (Char.unsafe_chr ((v asr 56) land 0xff));
  Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (o + 3) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (o + 4) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (o + 5) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (o + 6) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (o + 7) (Char.unsafe_chr (v land 0xff));
  t.len <- o + 8

(* Unsigned LEB128 over the int's 63-bit pattern. [lsr] (not [asr])
   makes the loop terminate for negative ints too: they emit the full
   9-byte two's-complement pattern and decode back exactly, so the
   codec is total over [int] even though the compact gossip plane only
   ever carries non-negative values. Allocation-free. *)
let add_varint t v =
  reserve t 9;
  let b = t.buf in
  let o = ref t.len and v = ref v in
  while !v lsr 7 <> 0 do
    Bytes.unsafe_set b !o (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    incr o;
    v := !v lsr 7
  done;
  Bytes.unsafe_set b !o (Char.unsafe_chr !v);
  t.len <- !o + 1

let varint_len v =
  let n = ref 1 and v = ref (v lsr 7) in
  while !v <> 0 do
    incr n;
    v := !v lsr 7
  done;
  !n

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let contents t = Bytes.sub_string t.buf 0 t.len
