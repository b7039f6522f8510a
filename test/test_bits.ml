(* Unit and property tests for the Bits bitvector substrate. *)

module Bits = Bitv.Bits

let check_bits = Alcotest.testable Bits.pp Bits.equal

let bits_of w n = Bits.of_int ~width:w n

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let test_basic () =
  Alcotest.(check int) "width zero" 5 (Bits.width (Bits.zero 5));
  Alcotest.(check bool) "is_zero" true (Bits.is_zero (Bits.zero 9));
  Alcotest.(check bool) "is_ones" true (Bits.is_ones (Bits.ones 9));
  Alcotest.(check int) "to_int" 42 (Bits.to_int (bits_of 16 42));
  Alcotest.(check check_bits) "of_int truncates" (bits_of 4 5) (bits_of 4 21);
  Alcotest.(check check_bits) "of_int negative" (Bits.ones 8) (bits_of 8 (-1))

let test_hex () =
  Alcotest.(check string) "to_hex" "BEEF" (Bits.to_hex (bits_of 16 0xBEEF));
  Alcotest.(check check_bits) "of_hex" (bits_of 16 0xBEEF)
    (Bits.of_hex ~width:16 "beef");
  Alcotest.(check check_bits) "of_hex underscore" (bits_of 16 0xBEEF)
    (Bits.of_hex ~width:16 "be_ef");
  Alcotest.(check string) "hex pads odd width" "1F" (Bits.to_hex (bits_of 5 0x1F));
  Alcotest.(check check_bits) "of_hex zext" (bits_of 20 0xBEEF)
    (Bits.of_hex ~width:20 "BEEF")

let test_bin () =
  Alcotest.(check string) "to_bin" "1010" (Bits.to_bin (bits_of 4 10));
  Alcotest.(check check_bits) "of_bin" (bits_of 4 10) (Bits.of_bin "1010");
  Alcotest.(check int) "of_bin width" 7 (Bits.width (Bits.of_bin "0001010"))

let test_concat_slice () =
  let a = bits_of 8 0xAB and b = bits_of 8 0xCD in
  let c = Bits.concat a b in
  Alcotest.(check int) "concat width" 16 (Bits.width c);
  Alcotest.(check string) "concat value" "ABCD" (Bits.to_hex c);
  Alcotest.(check check_bits) "slice hi" a (Bits.slice c ~hi:15 ~lo:8);
  Alcotest.(check check_bits) "slice lo" b (Bits.slice c ~hi:7 ~lo:0);
  Alcotest.(check check_bits) "slice mid" (bits_of 8 0xBC) (Bits.slice c ~hi:11 ~lo:4)

let test_arith () =
  Alcotest.(check check_bits) "add" (bits_of 8 5) (Bits.add (bits_of 8 250) (bits_of 8 11));
  Alcotest.(check check_bits) "sub wraps" (bits_of 8 0xFF) (Bits.sub (bits_of 8 0) (bits_of 8 1));
  Alcotest.(check check_bits) "mul" (bits_of 8 (21 * 9 mod 256)) (Bits.mul (bits_of 8 21) (bits_of 8 9));
  Alcotest.(check check_bits) "neg" (bits_of 8 (256 - 42)) (Bits.neg (bits_of 8 42));
  Alcotest.(check check_bits) "udiv" (bits_of 8 4) (Bits.udiv (bits_of 8 42) (bits_of 8 10));
  Alcotest.(check check_bits) "urem" (bits_of 8 2) (Bits.urem (bits_of 8 42) (bits_of 8 10));
  Alcotest.(check check_bits) "udiv by zero" (Bits.ones 8) (Bits.udiv (bits_of 8 42) (Bits.zero 8));
  Alcotest.(check check_bits) "urem by zero" (bits_of 8 42) (Bits.urem (bits_of 8 42) (Bits.zero 8))

let test_cmp () =
  Alcotest.(check bool) "ult" true (Bits.ult (bits_of 8 3) (bits_of 8 200));
  Alcotest.(check bool) "ult false" false (Bits.ult (bits_of 8 200) (bits_of 8 3));
  Alcotest.(check bool) "slt negative" true (Bits.slt (bits_of 8 200) (bits_of 8 3));
  Alcotest.(check bool) "sle equal" true (Bits.sle (bits_of 8 7) (bits_of 8 7))

let test_shift () =
  Alcotest.(check check_bits) "shl" (bits_of 8 0xF0) (Bits.shift_left (bits_of 8 0x0F) 4);
  Alcotest.(check check_bits) "lshr" (bits_of 8 0x0F) (Bits.shift_right (bits_of 8 0xF0) 4);
  Alcotest.(check check_bits) "ashr sign" (bits_of 8 0xFF) (Bits.shift_right_arith (bits_of 8 0x80) 7);
  Alcotest.(check check_bits) "shl overflow" (Bits.zero 8) (Bits.shift_left (bits_of 8 0xFF) 9)

let test_ext () =
  Alcotest.(check check_bits) "zext" (bits_of 16 0xAB) (Bits.zext (bits_of 8 0xAB) 16);
  Alcotest.(check check_bits) "sext pos" (bits_of 16 0x2B) (Bits.sext (bits_of 8 0x2B) 16);
  Alcotest.(check check_bits) "sext neg" (bits_of 16 0xFFAB) (Bits.sext (bits_of 8 0xAB) 16);
  Alcotest.(check check_bits) "zext truncates" (bits_of 4 0xB) (Bits.zext (bits_of 8 0xAB) 4)

let test_zero_width () =
  let z = Bits.zero 0 in
  Alcotest.(check int) "width" 0 (Bits.width z);
  Alcotest.(check check_bits) "concat left identity" (bits_of 8 7) (Bits.concat z (bits_of 8 7));
  Alcotest.(check check_bits) "concat right identity" (bits_of 8 7) (Bits.concat (bits_of 8 7) z);
  Alcotest.(check string) "hex empty" "" (Bits.to_hex z)

let test_wide () =
  (* 1500-byte packet-scale values *)
  let w = 1500 * 8 in
  let a = Bits.ones w in
  let b = Bits.add a (Bits.of_int ~width:w 1) in
  Alcotest.(check bool) "wide wraps to zero" true (Bits.is_zero b);
  let c = Bits.concat (bits_of 16 0xBEEF) (Bits.zero (w - 16)) in
  Alcotest.(check check_bits) "wide slice top" (bits_of 16 0xBEEF)
    (Bits.slice c ~hi:(w - 1) ~lo:(w - 16))

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_width = QCheck.Gen.int_range 1 80

let gen_bits =
  QCheck.Gen.(
    gen_width >>= fun w ->
    list_repeat w bool >|= fun bs -> Bits.of_bool_list bs)

let gen_pair_same_width =
  QCheck.Gen.(
    gen_width >>= fun w ->
    pair (list_repeat w bool) (list_repeat w bool) >|= fun (a, b) ->
    (Bits.of_bool_list a, Bits.of_bool_list b))

let arb_bits = QCheck.make ~print:Bits.to_string gen_bits

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) -> Bits.to_string a ^ ", " ^ Bits.to_string b)
    gen_pair_same_width

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb f)

let props =
  [
    prop "hex roundtrip" arb_bits (fun v ->
        Bits.equal v (Bits.of_hex ~width:(Bits.width v) (Bits.to_hex v)));
    prop "bin roundtrip" arb_bits (fun v -> Bits.equal v (Bits.of_bin (Bits.to_bin v)));
    prop "bool-list roundtrip" arb_bits (fun v ->
        Bits.equal v (Bits.of_bool_list (Bits.to_bool_list v)));
    prop "add commutes" arb_pair (fun (a, b) -> Bits.equal (Bits.add a b) (Bits.add b a));
    prop "add/sub inverse" arb_pair (fun (a, b) ->
        Bits.equal a (Bits.sub (Bits.add a b) b));
    prop "neg involutive" arb_bits (fun v -> Bits.equal v (Bits.neg (Bits.neg v)));
    prop "lognot involutive" arb_bits (fun v -> Bits.equal v (Bits.lognot (Bits.lognot v)));
    prop "de morgan" arb_pair (fun (a, b) ->
        Bits.equal
          (Bits.lognot (Bits.logand a b))
          (Bits.logor (Bits.lognot a) (Bits.lognot b)));
    prop "xor self is zero" arb_bits (fun v -> Bits.is_zero (Bits.logxor v v));
    prop "concat then slice" arb_pair (fun (a, b) ->
        let c = Bits.concat a b in
        Bits.equal a (Bits.slice c ~hi:(Bits.width c - 1) ~lo:(Bits.width b))
        && Bits.equal b (Bits.slice c ~hi:(Bits.width b - 1) ~lo:0));
    prop "ult total vs compare" arb_pair (fun (a, b) ->
        Bits.ult a b = (Bits.compare a b < 0));
    prop "divmod identity" arb_pair (fun (a, b) ->
        QCheck.assume (not (Bits.is_zero b));
        Bits.equal a (Bits.add (Bits.mul (Bits.udiv a b) b) (Bits.urem a b)));
    prop "mul matches int mul (small)" arb_pair (fun (a, b) ->
        QCheck.assume (Bits.width a <= 20);
        let w = Bits.width a in
        Bits.to_int (Bits.mul a b) = (Bits.to_int a * Bits.to_int b) land ((1 lsl w) - 1));
    prop "add matches int add (small)" arb_pair (fun (a, b) ->
        QCheck.assume (Bits.width a <= 20);
        let w = Bits.width a in
        Bits.to_int (Bits.add a b) = (Bits.to_int a + Bits.to_int b) land ((1 lsl w) - 1));
    prop "shift left then right" arb_bits (fun v ->
        let w = Bits.width v in
        QCheck.assume (w >= 2);
        let k = w / 2 in
        let masked = Bits.shift_right (Bits.shift_left v k) k in
        Bits.equal masked (Bits.zext (Bits.slice v ~hi:(w - k - 1) ~lo:0) w));
    prop "sext preserves signed order" arb_pair (fun (a, b) ->
        Bits.slt a b = Bits.slt (Bits.sext a (Bits.width a + 7)) (Bits.sext b (Bits.width b + 7)));
    prop "zext preserves unsigned order" arb_pair (fun (a, b) ->
        Bits.ult a b = Bits.ult (Bits.zext a (Bits.width a + 7)) (Bits.zext b (Bits.width b + 7)));
  ]

(* Byte-level construction and structure ops against a bit-by-bit
   reference built from [get]: widths 0-300, offsets at any bit (most
   not multiples of 8).  Comparing with [Bits.equal] against a vector
   rebuilt by [of_bool_list] also checks the zero padding above
   [width]. *)

let bits_ref v = Array.init (Bits.width v) (Bits.get v)

(* LSB-first bit array -> vector *)
let of_ref a = Bits.of_bool_list (List.rev (Array.to_list a))

let gen_wide_width = QCheck.Gen.int_range 0 300

let gen_wide_of w = QCheck.Gen.(list_repeat w bool >|= Bits.of_bool_list)
let gen_wide = QCheck.Gen.(gen_wide_width >>= gen_wide_of)

let arb_wide = QCheck.make ~print:Bits.to_string gen_wide

let arb_wide_pair =
  QCheck.make
    ~print:(fun (a, b) -> Bits.to_string a ^ ", " ^ Bits.to_string b)
    QCheck.Gen.(pair gen_wide gen_wide)

(* a vector of width >= 1 with [lo <= hi < width] *)
let arb_slice =
  QCheck.make
    ~print:(fun (v, hi, lo) -> Printf.sprintf "%s [%d:%d]" (Bits.to_string v) hi lo)
    QCheck.Gen.(
      int_range 1 300 >>= fun w ->
      gen_wide_of w >>= fun v ->
      int_range 0 (w - 1) >>= fun lo ->
      int_range lo (w - 1) >|= fun hi -> (v, hi, lo))

let arb_zext =
  QCheck.make
    ~print:(fun (v, w) -> Printf.sprintf "%s to %d" (Bits.to_string v) w)
    QCheck.Gen.(pair gen_wide gen_wide_width)

(* all ones, all ones but one bit, or random: is_ones must see the
   one cleared bit wherever it falls *)
let arb_near_ones =
  QCheck.make ~print:Bits.to_string
    QCheck.Gen.(
      gen_wide_width >>= fun w ->
      frequency
        [
          (1, return (Bits.ones w));
          ( 2,
            if w = 0 then return (Bits.zero 0)
            else
              int_range 0 (w - 1) >|= fun k ->
              Bits.init w (fun i -> i <> k) );
          (1, gen_wide_of w);
        ])

let byte_props =
  [
    prop "init = bit-by-bit" arb_wide (fun v ->
        let a = bits_ref v in
        let b = Bits.init (Array.length a) (fun i -> a.(i)) in
        Bits.equal b (of_ref a) && bits_ref b = a);
    prop "concat = bit-by-bit" arb_wide_pair (fun (hi, lo) ->
        Bits.equal (Bits.concat hi lo) (of_ref (Array.append (bits_ref lo) (bits_ref hi))));
    prop "slice = bit-by-bit" arb_slice (fun (v, hi, lo) ->
        Bits.equal (Bits.slice v ~hi ~lo) (of_ref (Array.sub (bits_ref v) lo (hi - lo + 1))));
    prop "zext = bit-by-bit" arb_zext (fun (v, w) ->
        let a = bits_ref v in
        Bits.equal (Bits.zext v w)
          (of_ref (Array.init w (fun i -> i < Array.length a && a.(i)))));
    prop "is_ones = bit-by-bit" arb_near_ones (fun v ->
        Bits.is_ones v = Array.for_all Fun.id (bits_ref v));
  ]

let () =
  Alcotest.run "bits"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "bin" `Quick test_bin;
          Alcotest.test_case "concat-slice" `Quick test_concat_slice;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "cmp" `Quick test_cmp;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "ext" `Quick test_ext;
          Alcotest.test_case "zero-width" `Quick test_zero_width;
          Alcotest.test_case "wide" `Quick test_wide;
        ] );
      ("props", props);
      ("byte ops", byte_props);
    ]
