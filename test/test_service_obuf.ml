(* The zero-copy output path: Obuf growth semantics, byte-for-byte
   parity between the Buffer and Obuf response encoders, and the
   zero-allocation guarantee of the warm encode -> write -> clear cycle
   that the server's flush path relies on. *)

module W = Service.Wire
module O = Service.Obuf

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Obuf semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_obuf_basic () =
  let b = O.create ~size:4 () in
  check Alcotest.int "empty" 0 (O.length b);
  O.add_string b "hello";
  O.add_u8 b 33;
  check Alcotest.int "length tracks appends" 6 (O.length b);
  check Alcotest.string "contents" "hello!" (O.contents b);
  Alcotest.(check bool) "grew past the initial size" true (O.capacity b >= 6);
  O.clear b;
  check Alcotest.int "clear resets length" 0 (O.length b);
  Alcotest.(check bool) "clear keeps storage" true (O.capacity b >= 6)

let test_obuf_integers () =
  let b = O.create () in
  O.add_i32_be b 0x01020304;
  O.add_i64_be b 0x05060708090A0B;
  let expect = Buffer.create 12 in
  Buffer.add_int32_be expect 0x01020304l;
  Buffer.add_int64_be expect 0x05060708090A0BL;
  check Alcotest.string "big-endian layout matches Buffer" (Buffer.contents expect)
    (O.contents b)

(* ------------------------------------------------------------------ *)
(* Encoder parity                                                      *)
(* ------------------------------------------------------------------ *)

let arbitrary_response =
  let open QCheck in
  let id_gen = Gen.int_bound 0x3FFFFFFF in
  let resp_gen =
    Gen.oneof
      [ Gen.map2
          (fun id value -> W.Value { id; value })
          id_gen
          Gen.(map (fun v -> v - (1 lsl 30)) (int_bound (1 lsl 31)));
        Gen.map (fun id -> W.Busy { id }) id_gen;
        Gen.map (fun id -> W.Unknown_object { id }) id_gen;
        Gen.map (fun id -> W.Bad_request { id }) id_gen;
        Gen.map (fun id -> W.Pong { id }) id_gen;
        Gen.map2
          (fun id json -> W.Stats_json { id; json })
          id_gen
          Gen.(string_size (int_bound 64)) ]
  in
  make resp_gen

let test_encoder_parity =
  QCheck.Test.make ~count:500 ~name:"Obuf encoder = Buffer encoder"
    arbitrary_response (fun resp ->
      let buf = Buffer.create 64 in
      W.encode_response buf resp;
      let ob = O.create () in
      W.encode_response_obuf ob resp;
      Buffer.contents buf = O.contents ob)

(* ------------------------------------------------------------------ *)
(* Steady-state flush cycle allocates nothing                          *)
(* ------------------------------------------------------------------ *)

let assert_no_alloc label ~ops f =
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    f i
  done;
  let after = Gc.minor_words () in
  let delta = after -. before in
  if delta > 256.0 then
    Alcotest.failf "%s allocated %.0f minor words over %d ops" label delta ops

(* The server's per-cycle output work, warm: encode a response into the
   connection's buffer, push it with a [Unix.write] straight from the
   buffer's storage and rewind the drained buffer. After the first
   cycles have sized the buffer, the loop must stay off the OCaml heap
   entirely. *)
let test_flush_cycle_no_alloc () =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      let out = O.create () in
      let resp = W.Value { id = 7; value = 123456789 } in
      (* Warm the storage through a few full cycles. *)
      for _ = 1 to 8 do
        W.encode_response_obuf out resp;
        ignore (Unix.write null (O.bytes out) 0 (O.length out));
        O.clear out
      done;
      assert_no_alloc "encode+write+clear cycle" ~ops:50_000 (fun _ ->
          W.encode_response_obuf out resp;
          ignore (Unix.write null (O.bytes out) 0 (O.length out));
          O.clear out))

let () =
  Alcotest.run "service_obuf"
    [ ("obuf",
       [ ("append, grow, clear", `Quick, test_obuf_basic);
         ("big-endian integers", `Quick, test_obuf_integers) ]);
      ("encoding",
       [ QCheck_alcotest.to_alcotest test_encoder_parity ]);
      ("allocation",
       [ ("warm flush cycle is alloc-free", `Quick,
          test_flush_cycle_no_alloc) ]) ]
