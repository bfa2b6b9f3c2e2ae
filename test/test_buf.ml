let ceq msg a b =
  if not (Cnum.equal ~tol:1e-12 a b) then
    Alcotest.failf "%s: expected %s, got %s" msg (Cnum.to_string a) (Cnum.to_string b)

let test_create_get_set () =
  let b = Buf.create 4 in
  Alcotest.(check int) "length" 4 (Buf.length b);
  ceq "initially zero" Cnum.zero (Buf.get b 2);
  Buf.set b 2 (Cnum.make 1.5 (-0.5));
  ceq "read back" (Cnum.make 1.5 (-0.5)) (Buf.get b 2);
  Alcotest.(check (float 0.0)) "re accessor" 1.5 (Buf.get_re b 2);
  Alcotest.(check (float 0.0)) "im accessor" (-0.5) (Buf.get_im b 2)

let test_init_to_array () =
  let b = Buf.init 5 (fun i -> Cnum.of_float (float_of_int i)) in
  let a = Buf.to_array b in
  Array.iteri (fun i c -> ceq "entry" (Cnum.of_float (float_of_int i)) c) a;
  let b2 = Buf.of_array a in
  Alcotest.(check (float 0.0)) "roundtrip" 0.0 (Buf.max_abs_diff b b2)

let test_madd () =
  let b = Buf.create 2 in
  Buf.set b 0 (Cnum.make 1.0 1.0);
  Buf.madd b 0 (Cnum.make 0.0 1.0) (Cnum.make 2.0 0.0);
  (* 1+i + i·2 = 1+3i *)
  ceq "mac" (Cnum.make 1.0 3.0) (Buf.get b 0)

let test_fill_zero () =
  let b = Buf.init 8 (fun _ -> Cnum.one) in
  Buf.fill_zero_range b ~pos:2 ~len:3;
  ceq "before range" Cnum.one (Buf.get b 1);
  ceq "in range" Cnum.zero (Buf.get b 3);
  ceq "after range" Cnum.one (Buf.get b 5);
  Buf.fill_zero b;
  ceq "all zero" Cnum.zero (Buf.get b 0)

let test_blit () =
  let src = Buf.init 6 (fun i -> Cnum.of_float (float_of_int i)) in
  let dst = Buf.create 6 in
  Buf.blit ~src ~src_pos:1 ~dst ~dst_pos:3 ~len:2;
  ceq "copied" (Cnum.of_float 1.0) (Buf.get dst 3);
  ceq "copied 2" (Cnum.of_float 2.0) (Buf.get dst 4);
  ceq "untouched" Cnum.zero (Buf.get dst 0)

let test_scale_into () =
  let src = Buf.init 4 (fun i -> Cnum.make (float_of_int i) 1.0) in
  let dst = Buf.create 4 in
  Buf.scale_into ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:4 (Cnum.make 0.0 1.0);
  (* (k + i)·i = -1 + k·i *)
  for k = 0 to 3 do
    ceq "scaled" (Cnum.make (-1.0) (float_of_int k)) (Buf.get dst k)
  done

let test_add_into () =
  let src = Buf.init 4 (fun i -> Cnum.of_float (float_of_int i)) in
  let dst = Buf.init 4 (fun _ -> Cnum.make 0.0 1.0) in
  Buf.add_into ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:4;
  for k = 0 to 3 do
    ceq "summed" (Cnum.make (float_of_int k) 1.0) (Buf.get dst k)
  done

let test_scale_add_into () =
  let src = Buf.init 3 (fun _ -> Cnum.one) in
  let dst = Buf.init 3 (fun i -> Cnum.of_float (float_of_int i)) in
  Buf.scale_add_into ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:3 (Cnum.make 0.0 2.0);
  for k = 0 to 2 do
    ceq "axpy" (Cnum.make (float_of_int k) 2.0) (Buf.get dst k)
  done

let test_offsets () =
  let src = Buf.init 8 (fun i -> Cnum.of_float (float_of_int i)) in
  let dst = Buf.create 8 in
  Buf.scale_into ~src ~src_pos:4 ~dst ~dst_pos:1 ~len:2 (Cnum.of_float 10.0);
  ceq "offset scale 1" (Cnum.of_float 40.0) (Buf.get dst 1);
  ceq "offset scale 2" (Cnum.of_float 50.0) (Buf.get dst 2);
  ceq "untouched" Cnum.zero (Buf.get dst 3)

let test_norm2 () =
  let b = Buf.create 4 in
  Buf.set b 0 (Cnum.make 0.6 0.0);
  Buf.set b 3 (Cnum.make 0.0 0.8);
  Alcotest.(check (float 1e-12)) "norm2" 1.0 (Buf.norm2 b)

let test_fidelity () =
  let a = Buf.create 2 in
  Buf.set a 0 Cnum.one;
  let b = Buf.create 2 in
  Buf.set b 0 Cnum.sqrt2_inv;
  Buf.set b 1 Cnum.sqrt2_inv;
  Alcotest.(check (float 1e-12)) "self fidelity" 1.0 (Buf.fidelity a a);
  Alcotest.(check (float 1e-12)) "half overlap" 0.5 (Buf.fidelity a b);
  (* Global phase leaves fidelity unchanged. *)
  let c = Buf.create 2 in
  Buf.set c 0 Cnum.i;
  Alcotest.(check (float 1e-12)) "phase invariant" 1.0 (Buf.fidelity a c)

let test_max_abs_diff () =
  let a = Buf.init 4 (fun i -> Cnum.of_float (float_of_int i)) in
  let b = Buf.copy a in
  Alcotest.(check (float 0.0)) "identical" 0.0 (Buf.max_abs_diff a b);
  Buf.set b 2 (Cnum.make 2.0 0.5);
  Alcotest.(check (float 1e-12)) "perturbed" 0.5 (Buf.max_abs_diff a b)

let test_sub_vector () =
  let a = Buf.init 8 (fun i -> Cnum.of_float (float_of_int i)) in
  let s = Buf.sub_vector a ~pos:3 ~len:2 in
  Alcotest.(check int) "length" 2 (Buf.length s);
  ceq "content" (Cnum.of_float 3.0) (Buf.get s 0);
  ceq "content 2" (Cnum.of_float 4.0) (Buf.get s 1)

let test_memory () =
  (* Exact accounting: payload + the bigarray custom block + the record.
     The old float-array guess (16·len + 24) undercounted the header and
     is what PR 10's Driver peak-memory fix replaced. *)
  Alcotest.(check int) "f64 exact bytes"
    ((16 * 1024) + Storage.bigarray_header_bytes + 24)
    (Buf.memory_bytes (Buf.create 1024));
  Alcotest.(check int) "f32 exact bytes"
    ((8 * 1024) + Storage.bigarray_header_bytes + 24)
    (Storage.F32.memory_bytes (Storage.F32.create 1024))

let prop_scale_then_unscale =
  QCheck.Test.make ~name:"scaling by s then 1/s restores the block" ~count:100
    QCheck.(pair (float_range 0.3 3.0) (float_range (-1.0) 1.0))
    (fun (re, im) ->
       let s = Cnum.make re im in
       let src = Buf.init 16 (fun i -> Cnum.make (float_of_int i) (-0.5)) in
       let tmp = Buf.create 16 in
       let back = Buf.create 16 in
       Buf.scale_into ~src ~src_pos:0 ~dst:tmp ~dst_pos:0 ~len:16 s;
       Buf.scale_into ~src:tmp ~src_pos:0 ~dst:back ~dst_pos:0 ~len:16
         (Cnum.div Cnum.one s);
       Buf.max_abs_diff src back < 1e-9)

let prop_add_commutes_with_scale2 =
  QCheck.Test.make ~name:"scale_add_into equals scale_into + add_into" ~count:100
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (re, im) ->
       let s = Cnum.make re im in
       let src = Buf.init 12 (fun i -> Cnum.make (sin (float_of_int i)) 0.25) in
       let d1 = Buf.init 12 (fun i -> Cnum.of_float (float_of_int i)) in
       let d2 = Buf.copy d1 in
       Buf.scale_add_into ~src ~src_pos:0 ~dst:d1 ~dst_pos:0 ~len:12 s;
       let tmp = Buf.create 12 in
       Buf.scale_into ~src ~src_pos:0 ~dst:tmp ~dst_pos:0 ~len:12 s;
       Buf.add_into ~src:tmp ~src_pos:0 ~dst:d2 ~dst_pos:0 ~len:12;
       Buf.max_abs_diff d1 d2 < 1e-12)

(* The same round-trip nets over both storage precisions, through the
   Storage.S abstraction the PR-10 refactor introduced. [eps] absorbs the
   one rounding per store that f32 pays; f64 must be exact. *)
let storage_roundtrip (module P : Storage.S) eps =
  QCheck.Test.make
    ~name:(P.label ^ ": of_array/to_array round-trips within " ^ string_of_float eps)
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 64)
        (pair (float_range (-4.0) 4.0) (float_range (-4.0) 4.0)))
    (fun pairs ->
       let arr = Array.of_list (List.map (fun (re, im) -> Cnum.make re im) pairs) in
       let b = P.of_array arr in
       let back = P.to_array b in
       Array.length back = Array.length arr
       && Array.for_all2
            (fun (a : Cnum.t) (c : Cnum.t) ->
               Float.abs (a.Cnum.re -. c.Cnum.re) <= eps
               && Float.abs (a.Cnum.im -. c.Cnum.im) <= eps)
            arr back)

let storage_set2_get (module P : Storage.S) eps =
  QCheck.Test.make ~name:(P.label ^ ": set2 then get_re/get_im") ~count:100
    QCheck.(pair (float_range (-8.0) 8.0) (float_range (-8.0) 8.0))
    (fun (re, im) ->
       let b = P.create 4 in
       P.set2 b 2 re im;
       Float.abs (P.get_re b 2 -. re) <= eps
       && Float.abs (P.get_im b 2 -. im) <= eps
       && Float.equal (P.get_re b 1) 0.0 && Float.equal (P.get_im b 3) 0.0)

let prop_demote_promote =
  QCheck.Test.make ~name:"promote (demote b) is b up to one f32 rounding" ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 32)
        (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)))
    (fun pairs ->
       let arr = Array.of_list (List.map (fun (re, im) -> Cnum.make re im) pairs) in
       let b = Buf.of_array arr in
       let f32 = Storage.demote b in
       let back = Storage.promote f32 in
       Buf.max_abs_diff b back <= 1e-6
       (* and the mixed-precision diff agrees with the widened one *)
       && Float.abs (Storage.max_abs_diff_mixed b f32 -. Buf.max_abs_diff b back)
          <= 1e-12)

let suite =
  [ ( "buf",
      [ Alcotest.test_case "create/get/set" `Quick test_create_get_set;
        Alcotest.test_case "init/to_array/of_array" `Quick test_init_to_array;
        Alcotest.test_case "madd" `Quick test_madd;
        Alcotest.test_case "fill_zero" `Quick test_fill_zero;
        Alcotest.test_case "blit" `Quick test_blit;
        Alcotest.test_case "scale_into" `Quick test_scale_into;
        Alcotest.test_case "add_into" `Quick test_add_into;
        Alcotest.test_case "scale_add_into" `Quick test_scale_add_into;
        Alcotest.test_case "offset handling" `Quick test_offsets;
        Alcotest.test_case "norm2" `Quick test_norm2;
        Alcotest.test_case "fidelity" `Quick test_fidelity;
        Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
        Alcotest.test_case "sub_vector" `Quick test_sub_vector;
        Alcotest.test_case "memory accounting" `Quick test_memory;
        QCheck_alcotest.to_alcotest prop_scale_then_unscale;
        QCheck_alcotest.to_alcotest prop_add_commutes_with_scale2;
        QCheck_alcotest.to_alcotest (storage_roundtrip (module Storage.F64) 0.0);
        QCheck_alcotest.to_alcotest (storage_roundtrip (module Storage.F32) 5e-7);
        QCheck_alcotest.to_alcotest (storage_set2_get (module Storage.F64) 0.0);
        QCheck_alcotest.to_alcotest (storage_set2_get (module Storage.F32) 1e-6);
        QCheck_alcotest.to_alcotest prop_demote_promote ] ) ]
