(* The C stripe kernels (lib/complexnum/kernels_stubs.c), pinned bit for
   bit against the pure-OCaml reference bodies of [Kernel_ref] at both
   precisions: every dense target with and without controls, random
   stripes of the controlled pairs called straight into the stub (up to
   three controls, bit 0 fixed or free, stripes of 1 to 3 pairs at both
   parities and after increment carries, signed zeros, n up to 16),
   two-qubit gates in both qubit orders, DMAV cached and uncached at pool
   sizes 1, 2 and 4, and the stripe primitives at odd positions and
   lengths, for n from 1 to 14, the identity stripes of the Run recursion, and its batches under
   pure-replication nodes (chains past the batch cap, and the fused
   gates of real dnn, vqe and supremacy circuits). Plus the dense stub's
   contract checks, the allocation claim (a dense gate and a DMAV gate
   cost the same small constant number of minor words at f32 as at f64)
   and the load-time choice of the dense stub's 4-lane body. *)

let cnum rs = Cnum.make (Random.State.float rs 2.0 -. 1.0) (Random.State.float rs 2.0 -. 1.0)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Runs [prop] over (n, seed) cases with n in [lo, hi]; the clamp keeps
   shrunk counterexamples (QCheck shrinks integers towards 0) in range. *)
let cases ~name ~count ~lo ?(hi = 14) prop =
  QCheck.Test.make ~name ~count QCheck.(pair (int_range lo hi) int) (fun (n, seed) ->
      prop (Int.max lo (Int.min hi n)) (Random.State.make [| seed |]))

let check_all tests =
  List.iter (fun t -> QCheck.Test.check_exn ~rand:(Random.State.make [| 14 |]) t) tests

module Suite_for (P : Storage.S) = struct
  module R = Kernel_ref.Make (P)
  module DK = Dense_kernel.Make (P)
  module DG = Dmav_generic.Make (P)

  let eq x y =
    P.length x = P.length y
    && Seq.for_all
         (fun i -> same_bits (P.get_re x i) (P.get_re y i) && same_bits (P.get_im x i) (P.get_im y i))
         (Seq.init (P.length x) Fun.id)

  let random_vec rs len = P.init len (fun _ -> cnum rs)

  let random_single rs =
    Gate.u3 (Random.State.float rs 6.3) (Random.State.float rs 6.3) (Random.State.float rs 6.3)

  let random_two rs = Array.init 4 (fun _ -> Array.init 4 (fun _ -> cnum rs))

  (* Amplitude parts drawn from a few values, both zeros included, so
     products and sums land on signed zeros. *)
  let special rs =
    let xs = [| 0.0; -0.0; 0.5; -0.5; 1.0; -1.25 |] in
    xs.(Random.State.int rs (Array.length xs))

  let special_vec rs len = P.init len (fun _ -> Cnum.make (special rs) (special rs))

  (* Every target, each once uncontrolled and once under a random
     non-empty control set when n allows one. *)
  let dense_single pool =
    cases ~name:(P.label ^ " dense single, every target") ~count:40 ~lo:1 (fun n rs ->
        let v = random_vec rs (1 lsl n) in
        List.for_all
          (fun target ->
             let others = List.filter (( <> ) target) (List.init n Fun.id) in
             let picked = List.filter (fun _ -> Random.State.bool rs) others in
             let control_sets =
               if others = [] then [ [] ]
               else [ []; (if picked = [] then [ List.hd others ] else picked) ]
             in
             List.for_all
               (fun controls ->
                  let m = random_single rs in
                  let a = P.copy v and b = P.copy v in
                  R.single ~n a m ~target ~controls;
                  DK.single ~pool ~n b m ~target ~controls;
                  eq a b)
               control_sets)
          (List.init n Fun.id))

  (* The gate as the stub takes it: 8 floats, row-major re/im. *)
  let flat (m : Gate.single) =
    Array.init 8 (fun j ->
        let c = m.(j / 4).(j / 2 mod 2) in
        if j mod 2 = 0 then c.Cnum.re else c.Cnum.im)

  (* Shuffled stripes over the controlled pairs [0, pairs): random cuts,
     so most stripes start inside a masked-increment run, plus a few
     stripes of 1, 2 or 3 pairs. Those start right after a carry of the
     masked increment (a multiple of [run], the pairs between two carries),
     one pair past it, or anywhere, so they begin and end on both odd and
     even pairs: the edges of the 4-lane body. *)
  let random_splits rs ~run pairs =
    let cuts = List.init (Random.State.int rs 7) (fun _ -> Random.State.int rs (pairs + 1)) in
    let short =
      List.concat_map
        (fun _ ->
           let carry = run * Random.State.int rs (pairs / run) in
           let start =
             match Random.State.int rs 3 with
             | 0 -> carry
             | 1 -> Int.min (pairs - 1) (carry + 1)
             | _ -> Random.State.int rs pairs
           in
           [ start; Int.min pairs (start + 1 + Random.State.int rs 3) ])
        (List.init (1 + Random.State.int rs 4) Fun.id)
    in
    let bounds = List.sort_uniq compare ((0 :: pairs :: cuts) @ short) in
    let rec ranges = function
      | a :: (b :: _ as rest) -> (a, b) :: ranges rest
      | _ -> []
    in
    List.map snd
      (List.sort compare (List.map (fun r -> (Random.State.bits rs, r)) (ranges bounds)))

  (* [P.dense_single] called directly on random stripes of the controlled
     pairs, against one whole-range call, the scalar reference and
     [Dense_kernel.single] at every pool size. Bit 0 is fixed by the
     target, fixed by a control, or free (the gates the 4-lane body takes
     on AVX2 hosts), a third of the cases each; up to three controls on
     either side of the target. u3 gates (whose top-left entry is real),
     random complex matrices, gates with exact-zero entries and vectors
     with signed zeros. *)
  let dense_splits pools =
    cases ~name:(P.label ^ " dense single, random pair stripes") ~count:120 ~lo:1 ~hi:16
      (fun n rs ->
         let v = special_vec rs (1 lsl n) in
         let shape = Random.State.int rs 3 in
         let target = if shape = 0 || n = 1 then 0 else 1 + Random.State.int rs (n - 1) in
         let forced = if shape = 1 && target <> 0 then [ 0 ] else [] in
         let others = List.filter (fun q -> q <> target && q <> 0) (List.init n Fun.id) in
         let c = Random.State.int rs (Int.min (4 - List.length forced) (List.length others + 1)) in
         let controls =
           forced
           @ (List.filteri (fun i _ -> i < c)
                (List.sort compare (List.map (fun q -> (Random.State.bits rs, q)) others))
              |> List.map snd)
         in
         let m =
           [| random_single rs; Array.init 2 (fun _ -> Array.init 2 (fun _ -> cnum rs)); Gate.x;
              Gate.z; Gate.phase (Random.State.float rs 6.3) |].(Random.State.int rs 5)
         in
         let cmask = Bits.all_masks controls and u = flat m in
         let fixed = cmask lor (1 lsl target) in
         let run = fixed land -fixed in
         let pairs = 1 lsl (n - 1 - List.length controls) in
         let want = P.copy v and whole = P.copy v and split = P.copy v in
         R.single ~n want m ~target ~controls;
         P.dense_single whole u ~target ~cmask ~lo:0 ~hi:pairs;
         List.iter
           (fun (lo, hi) -> P.dense_single split u ~target ~cmask ~lo ~hi)
           (random_splits rs ~run pairs);
         eq want whole && eq want split
         && List.for_all
              (fun pool ->
                 let got = P.copy v in
                 DK.single ~pool ~n got m ~target ~controls;
                 eq want got)
              pools)

  (* Every out-of-contract stripe call raises before reaching C. *)
  let dense_contract () =
    let n = 4 in
    let v = P.create (1 lsl n) and u = flat Gate.h in
    let rejects what f =
      match f () with
      | () -> Alcotest.failf "%s dense_single accepted %s" P.label what
      | exception Invalid_argument _ -> ()
    in
    let call ~target ~cmask ~lo ~hi () = P.dense_single v u ~target ~cmask ~lo ~hi in
    rejects "a control mask holding the target" (call ~target:1 ~cmask:0b0110 ~lo:0 ~hi:1);
    rejects "hi past the controlled pairs" (call ~target:0 ~cmask:0b0110 ~lo:0 ~hi:3);
    rejects "hi past the pairs" (call ~target:0 ~cmask:0 ~lo:0 ~hi:9);
    rejects "a negative lo" (call ~target:0 ~cmask:0 ~lo:(-1) ~hi:1);
    rejects "lo > hi" (call ~target:0 ~cmask:0 ~lo:2 ~hi:1);
    rejects "a target past n" (call ~target:4 ~cmask:0 ~lo:0 ~hi:1);
    rejects "a control past n" (call ~target:0 ~cmask:0b10000 ~lo:0 ~hi:1);
    rejects "a negative control mask" (call ~target:0 ~cmask:(-2) ~lo:0 ~hi:1);
    rejects "a short matrix" (fun () ->
        P.dense_single v (Array.make 7 0.0) ~target:0 ~cmask:0 ~lo:0 ~hi:1);
    call ~target:0 ~cmask:0b0110 ~lo:0 ~hi:2 ();
    call ~target:3 ~cmask:0b0111 ~lo:1 ~hi:1 ()

  let dense_two pool =
    cases ~name:(P.label ^ " dense two, both qubit orders") ~count:60 ~lo:2 (fun n rs ->
        let v = random_vec rs (1 lsl n) in
        let q1 = Random.State.int rs n in
        let q2 = (q1 + 1 + Random.State.int rs (n - 1)) mod n in
        List.for_all
          (fun (q_hi, q_lo) ->
             let m = random_two rs in
             let a = P.copy v and b = P.copy v in
             R.two ~n a m ~q_hi ~q_lo;
             DK.two ~pool ~n b m ~q_hi ~q_lo;
             eq a b)
          [ (Int.max q1 q2, Int.min q1 q2); (Int.min q1 q2, Int.max q1 q2) ])

  (* A gate matrix DD: the product of up to three random ops, so the
     border nodes repeat and the cached kernel actually hits. *)
  let random_mat p rs n =
    let op () =
      if n >= 2 && Random.State.bool rs then begin
        let q1 = Random.State.int rs n in
        let q2 = (q1 + 1 + Random.State.int rs (n - 1)) mod n in
        Circuit.Two
          { name = "r2"; matrix = random_two rs; q_hi = Int.max q1 q2; q_lo = Int.min q1 q2 }
      end
      else begin
        let target = Random.State.int rs n in
        let controls =
          if n >= 2 && Random.State.bool rs then [ (target + 1) mod n ] else []
        in
        Circuit.Single { name = "r1"; matrix = random_single rs; target; controls }
      end
    in
    let m = ref (Mat_dd.of_op p ~n (op ())) in
    for _ = 1 to Random.State.int rs 3 do
      m := Dd.mm p (Mat_dd.of_op p ~n (op ())) !m
    done;
    !m

  (* One matrix through both kernels at every pool size: uncached, then
     cached, then cached again on the now-stale workspace buffers. *)
  let dmav_agrees p pools ~n m ~v =
    List.for_all
      (fun pool ->
         let threads = Pool.size pool in
         let want = P.create (1 lsl n) and got = P.create (1 lsl n) in
         R.apply_nocache p ~threads ~n m ~v ~w:want;
         DG.apply_nocache p ~pool ~n m ~v ~w:got;
         let uncached = eq want got in
         let ws = DG.workspace ~n in
         let want_hits = R.apply_cache p ~threads ~n m ~v ~w:want in
         let got_hits, _ = DG.apply_cache ~workspace:ws p ~pool ~n m ~v ~w:got in
         let again = P.create (1 lsl n) in
         ignore (DG.apply_cache ~workspace:ws p ~pool ~n m ~v ~w:again);
         uncached && eq want got && eq want again && want_hits = got_hits)
      pools

  let dmav pools =
    cases ~name:(P.label ^ " dmav cached and uncached, pools 1/2/4") ~count:40 ~lo:1
      (fun n rs ->
         let p = Dd.create () in
         let m = random_mat p rs n in
         dmav_agrees p pools ~n m ~v:(random_vec rs (1 lsl n)))

  (* A controlled single-qubit gate with every control above the target:
     each control level's 0-branch is the identity below it. *)
  let controlled_mat p rs n =
    let target = Random.State.int rs (n - 1) in
    let above = List.init (n - 1 - target) (fun k -> target + 1 + k) in
    let controls = List.filter (fun _ -> Random.State.bool rs) above in
    let controls = if controls = [] then [ n - 1 ] else controls in
    Mat_dd.of_op p ~n
      (Circuit.Single { name = "cu"; matrix = random_single rs; target; controls })

  (* The DMAV-aware fusion of a random-length prefix of a deep circuit. *)
  let fused_mats p rs n =
    let fam = [| Suite.Dnn; Suite.Vqe; Suite.Supremacy |].(Random.State.int rs 3) in
    let c = Suite.generate ~seed:(Random.State.bits rs) ~gates:(20 + Random.State.int rs 60) fam ~n in
    let ops = Array.to_list c.Circuit.ops in
    let prefix = List.filteri (fun i _ -> i < 4 + Random.State.int rs 60) ops in
    fst (Fusion.dmav_aware p (List.map (Mat_dd.of_op p ~n) prefix))

  (* Pure-replication roots, (e,0,0,e') or (0,e,e',0) at every level above
     level 0: a single-qubit gate on qubit 0, a product of random
     anti-diagonal (X-type) gates on every qubit, and the two shapes
     mixed. *)
  let replication_mats p rs n =
    let single target matrix = Circuit.Single { name = "r1"; matrix; target; controls = [] } in
    let anti () = [| [| Cnum.zero; cnum rs |]; [| cnum rs; Cnum.zero |] |] in
    let product ops =
      List.fold_left (fun m op -> Dd.mm p (Mat_dd.of_op p ~n op) m) (Mat_dd.identity p n) ops
    in
    [ Mat_dd.of_op p ~n (single 0 (random_single rs));
      product (List.init n (fun q -> single q (anti ())));
      product (single 0 (random_single rs) :: List.init (n - 1) (fun q -> single (q + 1) (anti ()))) ]

  (* Identity roots at every n, plain and scaled by weights with a
     signed-zero part. *)
  let identity_roots pools =
    let rs = Random.State.make [| 17 |] in
    let p = Dd.create () in
    for n = 1 to 14 do
      let id = Mat_dd.identity p n in
      List.iter
        (fun m ->
           if not (dmav_agrees p pools ~n m ~v:(random_vec rs (1 lsl n))) then
             Alcotest.failf "%s identity n = %d" P.label n)
        [ id; Dd.mscale p id (Cnum.make (-0.0) (-0.5)); Dd.mscale p id (Cnum.make 0.75 (-0.0)) ]
    done

  (* The stub against the reference Run on one root node, with signed
     zeros in V, in the starting W and in the root weight, which is where
     the stripe's replayed weight product shows. *)
  let run_agrees p rs m =
    let mv = Dd.mview p in
    let node = Dd.mid (Dd.mtgt m) in
    let len = 2 lsl Dd.mlevel p (Dd.mtgt m) in
    let v = special_vec rs len and w0 = special_vec rs len in
    List.for_all
      (fun (fre, fim) ->
         let want = P.copy w0 and got = P.copy w0 in
         R.run_node mv node v want 0 0 fre fim;
         P.dmav_run mv ~node ~v ~w:got ~iv:0 ~iw:0 ~fre ~fim;
         eq want got)
      [ (-0.0, -0.5); (-0.0, 0.5); (0.5, -0.0); (-0.5, -0.0); (-0.0, -0.0); (0.0, -0.0);
        (special rs, special rs) ]

  (* Identity roots, control 0-branches, random products and fused
     prefixes, in one package that is compacted and then reset between
     rounds, so the identity slots are reissued. *)
  let identity_blocks pools =
    cases ~name:(P.label ^ " dmav identity blocks across compact and reset") ~count:30 ~lo:2
      ~hi:10 (fun n rs ->
         let p = Dd.create () in
         let round () =
           let ms =
             (Mat_dd.identity p n :: controlled_mat p rs n :: random_mat p rs n
              :: fused_mats p rs n)
             @ replication_mats p rs n
           in
           List.for_all
             (fun m ->
                run_agrees p rs m && dmav_agrees p pools ~n m ~v:(special_vec rs (1 lsl n)))
             ms
         in
         let keep = random_mat p rs n in
         let first = round () in
         Dd.compact p ~vroots:[] ~mroots:[ keep ];
         let second = round () in
         Dd.reset p;
         let third = round () in
         first && second && third)

  (* Replication chains long enough that a batch passes the C stub's
     64-path cap and is split into chunks, through Run alone and through
     both kernels. *)
  let replication_roots pools =
    let rs = Random.State.make [| 19 |] in
    let p = Dd.create () in
    for n = 10 to 14 do
      List.iter
        (fun m ->
           if not (run_agrees p rs m && dmav_agrees p pools ~n m ~v:(special_vec rs (1 lsl n)))
           then Alcotest.failf "%s replication root n = %d" P.label n)
        (replication_mats p rs n)
    done

  (* Every fused gate of real 12-qubit dnn, vqe and supremacy circuits,
     fused by Fusion.dmav_aware over the whole circuit. *)
  let fused_streams pools =
    let n = 12 in
    let rs = Random.State.make [| 23 |] in
    List.iter
      (fun (fam, gates) ->
         let p = Dd.create () in
         let c = Suite.generate ~seed:7 ~gates fam ~n in
         let ms =
           fst (Fusion.dmav_aware p (List.map (Mat_dd.of_op p ~n) (Array.to_list c.Circuit.ops)))
         in
         List.iteri
           (fun i m ->
              if not (run_agrees p rs m && dmav_agrees p pools ~n m ~v:(random_vec rs (1 lsl n)))
              then Alcotest.failf "%s %s fused gate %d" P.label (Suite.family_name fam) i)
           ms)
      [ (Suite.Dnn, 300); (Suite.Vqe, 300); (Suite.Supremacy, 250) ]

  (* Random lengths and offsets (odd ones included) with disjoint source
     and destination ranges, so each primitive also runs with one vector
     as both source and destination, as cache hits and fills do. *)
  let stripes =
    cases ~name:(P.label ^ " stripe primitives, odd offsets") ~count:200 ~lo:1
      (fun n rs ->
         let size = (1 lsl n) + Random.State.int rs 7 in
         let len = Random.State.int rs ((size / 2) + 1) in
         let lo = Random.State.int rs (size - (2 * len) + 1) in
         let hi = lo + len + Random.State.int rs (size - (2 * len) - lo + 1) in
         let src_pos, dst_pos = if Random.State.bool rs then (lo, hi) else (hi, lo) in
         let s = cnum rs in
         let sre = s.Cnum.re and sim = s.Cnum.im in
         let src = random_vec rs size and dst = random_vec rs size in
         let agree ref_op stub_op =
           let a = P.copy dst and b = P.copy dst in
           ref_op ~src ~dst:a;
           stub_op ~src ~dst:b;
           let c = P.copy dst and d = P.copy dst in
           ref_op ~src:c ~dst:c;
           stub_op ~src:d ~dst:d;
           eq a b && eq c d
         in
         let zero_a = P.copy dst and zero_b = P.copy dst in
         R.fill_zero_range zero_a ~pos:dst_pos ~len;
         P.fill_zero_range zero_b ~pos:dst_pos ~len;
         agree
           (fun ~src ~dst -> R.scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim)
           (fun ~src ~dst -> P.scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim)
         && agree
              (fun ~src ~dst -> R.scale2_add_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim)
              (fun ~src ~dst -> P.scale2_add_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim)
         && agree
              (fun ~src ~dst -> R.add_into ~src ~src_pos ~dst ~dst_pos ~len)
              (fun ~src ~dst -> P.add_into ~src ~src_pos ~dst ~dst_pos ~len)
         && eq zero_a zero_b
         && same_bits (R.norm2 src) (P.norm2 src))

  let tests () =
    Pool.with_pool 1 (fun p1 ->
        Pool.with_pool 2 (fun p2 ->
            Pool.with_pool 4 (fun p4 ->
                check_all
                  [ dense_single p2; dense_two p2; dmav [ p1; p2; p4 ]; stripes ])))

  let split_tests () =
    Pool.with_pool 1 (fun p1 ->
        Pool.with_pool 2 (fun p2 ->
            Pool.with_pool 4 (fun p4 -> check_all [ dense_splits [ p1; p2; p4 ] ])))

  let identity_tests () =
    Pool.with_pool 1 (fun p1 ->
        Pool.with_pool 2 (fun p2 ->
            Pool.with_pool 4 (fun p4 ->
                identity_roots [ p1; p2; p4 ];
                check_all [ identity_blocks [ p1; p2; p4 ] ])))

  let batch_tests () =
    Pool.with_pool 1 (fun p1 ->
        Pool.with_pool 2 (fun p2 ->
            Pool.with_pool 4 (fun p4 ->
                replication_roots [ p1; p2; p4 ];
                fused_streams [ p1; p2; p4 ])))

  (* Minor words of one dense gate and one uncached DMAV gate at n = 14 on
     a size-1 pool (jobs run inline, so every word is seen). *)
  let gate_words () =
    let n = 14 in
    Pool.with_pool 1 (fun pool ->
        let p = Dd.create () in
        let op = (Suite.generate ~seed:1 Suite.Qft ~n).Circuit.ops.(1) in
        let m = Mat_dd.of_op p ~n op in
        let v = DK.zero_state n and w = P.create (1 lsl n) in
        let words f =
          f ();
          let before = Gc.minor_words () in
          f ();
          Gc.minor_words () -. before
        in
        ( words (fun () -> DK.single ~pool ~n v Gate.h ~target:3 ~controls:[ 5 ]),
          words (fun () -> DG.apply_nocache p ~pool ~n m ~v ~w) ))
end

module K64 = Suite_for (Storage.F64)
module K32 = Suite_for (Storage.F32)

(* The dense kernel flattens the gate into one small float array; the
   DMAV kernel builds its task lists and the pool job closure. Neither
   may grow with 2ⁿ, and the storage kind must not change the count. *)
let test_allocation () =
  let d64, m64 = K64.gate_words () and d32, m32 = K32.gate_words () in
  Alcotest.(check (float 0.0)) "dense gate: f32 words = f64 words" d64 d32;
  Alcotest.(check (float 0.0)) "dmav gate: f32 words = f64 words" m64 m32;
  List.iter
    (fun (what, words) ->
       if words > 256.0 then
         Alcotest.failf "%s allocated %.0f minor words at n = 14" what words)
    [ ("dense gate", d64); ("dmav gate", m64) ]

(* The dense stub's 4-lane body is chosen at load time from the CPU:
   [Storage.dense_lanes] must be 4 exactly on an x86-64 host whose
   /proc/cpuinfo flags list avx2 (aarch64 lists "Features", not
   "flags"), so a detection that silently fails shows up here. A dense
   gate reports the choice on the statevec.dense.lanes gauge. *)
let test_dense_lanes () =
  let lanes = Storage.dense_lanes in
  if lanes <> 2 && lanes <> 4 then Alcotest.failf "dense_lanes = %d" lanes;
  (if Sys.file_exists "/proc/cpuinfo" then
     let flags =
       In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
       |> String.split_on_char '\n'
       |> List.filter (fun l -> String.starts_with ~prefix:"flags" l)
     in
     let avx2 =
       flags <> []
       && List.for_all
            (fun l -> List.mem "avx2" (String.split_on_char ' ' (String.trim l)))
            flags
     in
     Alcotest.(check int) "dense_lanes from /proc/cpuinfo" (if avx2 then 4 else 2) lanes);
  Obs.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
      let n = 4 in
      K64.DK.single ~n (K64.DK.zero_state n) Gate.h ~target:1 ~controls:[];
      Alcotest.(check (option int)) "statevec.dense.lanes gauge" (Some lanes)
        (Obs.Metrics.gauge_value (Obs.Metrics.snapshot ()) "statevec.dense.lanes"))

let suite =
  [ ( "kernels",
      [ Alcotest.test_case "f64 stubs = OCaml reference (bits)" `Quick K64.tests;
        Alcotest.test_case "f32 stubs = OCaml reference (bits)" `Quick K32.tests;
        Alcotest.test_case "f64 dense pair stripes = OCaml reference (bits)" `Quick
          K64.split_tests;
        Alcotest.test_case "f32 dense pair stripes = OCaml reference (bits)" `Quick
          K32.split_tests;
        Alcotest.test_case "dense_single rejects out-of-contract stripes" `Quick (fun () ->
            K64.dense_contract ();
            K32.dense_contract ());
        Alcotest.test_case "one gate allocates O(1), same at f32 and f64" `Quick
          test_allocation;
        Alcotest.test_case "f64 identity stripes = OCaml reference (bits)" `Quick
          K64.identity_tests;
        Alcotest.test_case "f32 identity stripes = OCaml reference (bits)" `Quick
          K32.identity_tests;
        Alcotest.test_case "f64 replication batches = OCaml reference (bits)" `Quick
          K64.batch_tests;
        Alcotest.test_case "f32 replication batches = OCaml reference (bits)" `Quick
          K32.batch_tests;
        Alcotest.test_case "dense_lanes matches the host's AVX2 flag" `Quick
          test_dense_lanes ] ) ]
