(* The C stripe kernels (lib/complexnum/kernels_stubs.c), pinned bit for
   bit against the pure-OCaml reference bodies of [Kernel_ref] at both
   precisions: every dense target with and without controls, random
   stripes of the controlled pairs called straight into the stub (up to
   three controls, bit 0 fixed or free, stripes of 1 to 3 pairs at both
   parities and after increment carries, signed zeros, n up to 16),
   two-qubit gates in both qubit orders (random stripes of the quads,
   signed zeros and cancelling sums, no pool and pools 1/2), DMAV cached and uncached at pool
   sizes 1, 2 and 4, and the stripe primitives at odd positions and
   lengths, for n from 1 to 14, the identity stripes of the Run recursion, and its batches under
   pure-replication nodes (chains past the batch cap, and the fused
   gates of real dnn, vqe and supremacy circuits), and the local leg of
   every form (ops under 0 to 3 controls and products of support one or
   two) against the reference walk, which rounds once per output, the
   pick that sends such a gate to it, and the path counts of forms under
   0 to 5 controls against their DDs'. Plus the dense stub's contract checks, the allocation claim (a
   dense gate and a DMAV gate cost the same small constant number of
   minor words at f32 as at f64, a local gate none) and the load-time
   choice of the dense and local stubs' widest body. The dense stripe
   and local leg cases run every vector body the host has (2, 4 and 8
   lanes, through [Storage.Testing]). *)

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

  (* Algorithm 2, unconditionally: the cached program of [m] run on
     [pool]; its hits, read off the program. *)
  let apply_cache ?workspace p ~pool ~n m ~v ~w =
    let g = Flat_gate.program p ~n ~cached:true (Cost.breakdown p ~n ~threads:(Pool.size pool) m) in
    DG.run ?workspace ~pool g ~v ~w;
    g.Flat_gate.hits

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

  (* Shuffled stripes over the controlled pairs [0, pairs): random cuts,
     so most stripes start inside a masked-increment run, plus a few
     stripes of 1 to 9 pairs. Those start right after a carry of the
     masked increment (a multiple of [run], the pairs between two carries),
     one to three pairs past it, or anywhere, so they begin and end at
     every residue mod 4: the leading and trailing groups of the 4- and
     8-lane bodies. *)
  let random_splits rs ~run pairs =
    let cuts = List.init (Random.State.int rs 7) (fun _ -> Random.State.int rs (pairs + 1)) in
    let short =
      List.concat_map
        (fun _ ->
           let carry = run * Random.State.int rs (pairs / run) in
           let start =
             match Random.State.int rs 3 with
             | 0 -> carry
             | 1 -> Int.min (pairs - 1) (carry + 1 + Random.State.int rs 3)
             | _ -> Random.State.int rs pairs
           in
           [ start; Int.min pairs (start + 1 + Random.State.int rs 9) ])
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
     [Dense_kernel.single] at every pool size, under every vector body
     the host has ([Storage.Testing.lanes]). Bit 0 and bit 1 are each
     fixed by the target, fixed by a control, or free (which decides how
     many neighbouring pairs one load of the 4- and 8-lane bodies takes:
     1, 2 or 4); up to three controls on either side of the target.
     u3 gates (whose top-left entry is real), random complex matrices,
     gates with exact-zero entries and vectors with signed zeros. *)
  let dense_splits pools =
    cases ~name:(P.label ^ " dense single, random pair stripes") ~count:160 ~lo:1 ~hi:16
      (fun n rs ->
         let v = special_vec rs (1 lsl n) in
         (* Per bit: 0 the target, 1 a control, 2 free. *)
         let b0 = Random.State.int rs 3 and b1 = Random.State.int rs 3 in
         let b1 = if b0 = 0 && b1 = 0 then 1 + Random.State.int rs 2 else b1 in
         let target =
           if b0 = 0 || n = 1 then 0 else if b1 = 0 || n = 2 then 1 else 2 + Random.State.int rs (n - 2)
         in
         let forced =
           List.filter
             (fun q -> q < n && q <> target)
             ((if b0 = 1 then [ 0 ] else []) @ if b1 = 1 then [ 1 ] else [])
         in
         let others = List.filter (fun q -> q <> target && q > 1) (List.init n Fun.id) in
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
         let cmask = Bits.all_masks controls and u = Dense_kernel.flatten m in
         let fixed = cmask lor (1 lsl target) in
         let run = fixed land -fixed in
         let pairs = 1 lsl (n - 1 - List.length controls) in
         let want = P.copy v in
         R.single ~n want m ~target ~controls;
         let splits = random_splits rs ~run pairs in
         List.for_all
           (fun lanes ->
              Storage.Testing.with_lanes lanes (fun () ->
                  let whole = P.copy v and split = P.copy v in
                  P.dense_single whole u ~target ~cmask ~lo:0 ~hi:pairs;
                  List.iter (fun (lo, hi) -> P.dense_single split u ~target ~cmask ~lo ~hi) splits;
                  eq want whole && eq want split
                  && List.for_all
                       (fun pool ->
                          let got = P.copy v in
                          DK.single ~pool ~n got m ~target ~controls;
                          eq want got)
                       pools))
           Storage.Testing.lanes)

  (* Every out-of-contract stripe call raises before reaching C. *)
  let dense_contract () =
    let n = 4 in
    let v = P.create (1 lsl n) and u = Dense_kernel.flatten Gate.h in
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
         let got_hits = apply_cache ~workspace:ws p ~pool ~n m ~v ~w:got in
         let again = P.create (1 lsl n) in
         ignore (apply_cache ~workspace:ws p ~pool ~n m ~v ~w:again);
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
    Fusion_ref.fused_dds p ~n prefix

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
    let mv = Dd.Testing.mview p in
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
     prefixes, in one package that is compacted between rounds, first
     keeping one matrix and then nothing, so the identity slots are
     reissued. *)
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
         Dd.compact p ~vroots:[] ~mroots:[];
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
     fused by the DD reference of Algorithm 3 ([Fusion_ref]) over the
     whole circuit. *)
  let fused_streams pools =
    let n = 12 in
    let rs = Random.State.make [| 23 |] in
    List.iter
      (fun (fam, gates) ->
         let p = Dd.create () in
         let c = Suite.generate ~seed:7 ~gates fam ~n in
         let ms =
           Fusion_ref.fused_dds p ~n (Array.to_list c.Circuit.ops)
         in
         List.iteri
           (fun i m ->
              if not (run_agrees p rs m && dmav_agrees p pools ~n m ~v:(random_vec rs (1 lsl n)))
              then Alcotest.failf "%s %s fused gate %d" P.label (Suite.family_name fam) i)
           ms)
      [ (Suite.Dnn, 300); (Suite.Vqe, 300); (Suite.Supremacy, 250) ]

  (* The flat phase's compiled gates against the package-view run: every
     gate of the same fused streams, compiled as the planner compiles it
     (priced for the pool, its own arena, tasks remapped), cached and
     uncached, at the default split and split down to single-MAC pieces,
     run on the pool and, as the streaming executor runs it, every task
     list on an inline size-1 pool. *)
  let compiled_streams pools =
    let n = 12 in
    let rs = Random.State.make [| 29 |] in
    Pool.with_pool 1 (fun inline ->
        List.iter
          (fun (fam, gates) ->
             let p = Dd.create () in
             let c = Suite.generate ~seed:7 ~gates fam ~n in
             let ms =
               Fusion_ref.fused_dds p ~n (Array.to_list c.Circuit.ops)
             in
             List.iteri
               (fun i m ->
                  let v = random_vec rs (1 lsl n) in
                  List.iter
                    (fun pool ->
                       let threads = Pool.size pool in
                       let want = P.create (1 lsl n) and want_c = P.create (1 lsl n) in
                       R.apply_nocache p ~threads ~n m ~v ~w:want;
                       let want_hits = R.apply_cache p ~threads ~n m ~v ~w:want_c in
                       let g = Flat_gate.compile p ~n ~threads m in
                       List.iter
                         (fun (cached, piece_macs) ->
                            let prog =
                              Flat_gate.program ?piece_macs p ~n ~cached
                                (Cost.breakdown p ~n ~threads m)
                            in
                            let expect = if cached then want_c else want in
                            List.iter
                              (fun on ->
                                 let got = P.create (1 lsl n) in
                                 DG.run ~workspace:(DG.workspace ~n) ~pool:on prog ~v ~w:got;
                                 if not (eq expect got) then
                                   Alcotest.failf "%s %s gate %d: compiled %s run differs \
                                                   (pool %d on %d, pieces %d)"
                                     P.label (Suite.family_name fam) i
                                     (if cached then "cached" else "uncached")
                                     threads (Pool.size on) (Flat_gate.pieces prog))
                              [ pool; inline ];
                            if cached && prog.Flat_gate.hits <> want_hits then
                              Alcotest.failf "%s gate %d: %d hits, reference %d" P.label i
                                prog.Flat_gate.hits want_hits)
                         [ (false, None); (true, None); (false, Some 1.0); (true, Some 1.0) ];
                       (* The planner's own pick, through [exec]. *)
                       let got = P.create (1 lsl n) in
                       DG.exec ~workspace:(DG.workspace ~n) ~pool:inline g ~v ~w:(fun () -> got);
                       let expect =
                         match g.Flat_gate.body with
                         | Flat_gate.Dmav prog when prog.Flat_gate.cached -> want_c
                         | _ -> want
                       in
                       if not (eq expect got) then
                         Alcotest.failf "%s gate %d: exec differs" P.label i)
                    pools)
               ms)
          [ (Suite.Dnn, 300); (Suite.Vqe, 300); (Suite.Supremacy, 250) ])

  (* Entries of ±1 or ±1 ± i, and vectors of real parts ±1 or ±0.5 with
     imaginary parts 0 or ±2^-60: a row's partial sums then cancel
     exactly, and a second product whose 2^-60 part is lost in its own
     sum but would survive another association shows, even after f32
     rounding. *)
  let sign_entry rs =
    let pm () = if Random.State.bool rs then 1.0 else -1.0 in
    Cnum.make (pm ()) (if Random.State.bool rs then 0.0 else pm ())

  let cancel_vec rs len =
    let pick xs = xs.(Random.State.int rs (Array.length xs)) in
    let tiny = Float.ldexp 1.0 (-60) in
    P.init len (fun _ ->
        Cnum.make (pick [| 1.0; -1.0; 0.5; -0.5 |]) (pick [| 0.0; tiny; -.tiny |]))

  let signs rs k = Array.init k (fun _ -> Array.init k (fun _ -> sign_entry rs))

  (* Two-qubit gates in both qubit orders against the scalar reference,
     random and sign matrices on random, signed-zero and cancelling
     vectors: through [Dense_kernel.two] with no pool, on a size-1 and on
     a size-2 pool, and straight through [P.local_apply], all 16 paths
     set, on random stripes of the quads. *)
  let dense_two pools =
    cases ~name:(P.label ^ " dense two, both qubit orders") ~count:60 ~lo:2 (fun n rs ->
        let q1 = Random.State.int rs n in
        let q2 = (q1 + 1 + Random.State.int rs (n - 1)) mod n in
        let quads = 1 lsl (n - 2) and run = 1 lsl Int.min q1 q2 in
        List.for_all
          (fun v ->
             List.for_all
               (fun (q_hi, q_lo) ->
                  let m = if Random.State.bool rs then random_two rs else signs rs 4 in
                  let want = P.copy v and split = P.copy v in
                  R.local ~n want (Dense_kernel.flatten m) ~major:(1 lsl q_hi)
                    ~minor:(1 lsl q_lo) ~cmask:0 ~paths:0xffff;
                  List.iter
                    (fun (lo, hi) ->
                       P.local_apply split (Dense_kernel.flatten m) ~major:(1 lsl q_hi) ~minor:(1 lsl q_lo)
                         ~cmask:0 ~held:0 ~paths:0xffff ~lo ~hi)
                    (random_splits rs ~run:(Int.min run quads) quads);
                  eq want split
                  && List.for_all
                       (fun pool ->
                          let got = P.copy v in
                          DK.two ?pool ~n got m ~q_hi ~q_lo;
                          eq want got)
                       (None :: List.map Option.some pools))
               [ (Int.max q1 q2, Int.min q1 q2); (Int.min q1 q2, Int.max q1 q2) ])
          [ random_vec rs (1 lsl n); special_vec rs (1 lsl n); cancel_vec rs (1 lsl n) ])

  (* The local leg against the reference walk ([R.local]): every
     support-1 and support-2 shape at n = 2..8 (each target, qubit 0
     included, under 0 to 3 controls: one above and one below the
     target, and sets that take bits 0 and 1 both or leave both free;
     two-qubit gates in both qubit orders and products of two random
     gates, on pairs holding qubit 0, qubit 1, both or neither), as the
     flat phase builds them ([Flat_gate.local_of_op],
     [Flat_gate.local_product]), compiled ([Flat_gate.of_local]) and
     applied in place by [exec] on the pool and on an inline size-1
     pool, and by [P.local_apply] over random group stripes, under every
     vector body the host has, bit for bit, on random vectors, on vectors
     with signed zeros and on cancelling ones. Plus random 2×2 and 4×4
     matrices with random paths under 0 to 3 random controls, straight
     through [P.local_apply]. *)
  let shuffle rs l =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rs, x)) l))

  let local_shapes rs n =
    let single target controls matrix =
      Circuit.Single { name = "l1"; matrix; target; controls }
    in
    let two q_hi q_lo matrix = Circuit.Two { name = "l2"; matrix; q_hi; q_lo } in
    let m1 () =
      [| random_single rs; Array.init 2 (fun _ -> Array.init 2 (fun _ -> cnum rs)); Gate.x;
         Gate.z; Gate.phase (Random.State.float rs 6.3); signs rs 2 |].(Random.State.int rs 6)
    in
    let m2 () =
      [| random_two rs; Gate.swap2; Gate.cz2; Gate.fsim (Random.State.float rs 6.3) 0.4;
         signs rs 4 |].(Random.State.int rs 5)
    in
    let form op = Flat_gate.local_of_op ~n op in
    let product a b =
      match Flat_gate.local_product ~n (form a) (form b) with
      | Flat_gate.Narrow_product l -> l
      | Flat_gate.Wide_product _ -> Alcotest.fail "a product on one pair priced wide"
    in
    let targets = List.init n Fun.id in
    (* [k] controls off [t]: with [low], bits 0 and 1 first (those that
       are not [t]), else none of them. *)
    let controls t k ~low =
      let low_bits = List.filter (fun q -> q <> t && q <= 1) targets in
      let rest = shuffle rs (List.filter (fun q -> q <> t && q > 1) targets) in
      let pool = if low then low_bits @ rest else rest in
      if List.length pool < k then None else Some (List.filteri (fun i _ -> i < k) pool)
    in
    (* Bits 0 and 1: both in the pair, one of them, or neither. *)
    let pair cls =
      let high () = 2 + Random.State.int rs (n - 2) in
      let a, b =
        match cls with
        | 0 -> (0, 1)
        | 1 when n > 2 -> (0, high ())
        | 2 when n > 2 -> (1, high ())
        | 3 when n > 3 ->
          let a = high () in
          (a, 2 + ((a - 2 + 1 + Random.State.int rs (n - 3)) mod (n - 2)))
        | _ ->
          let a = Random.State.int rs n in
          (a, (a + 1 + Random.State.int rs (n - 1)) mod n)
      in
      if Random.State.bool rs then (a, b) else (b, a)
    in
    List.concat_map
      (fun t ->
         let others = List.filter (( <> ) t) targets in
         let above = List.filter (fun c -> c > t) others
         and below = List.filter (fun c -> c < t) others in
         let pick l = List.nth l (Random.State.int rs (List.length l)) in
         [ form (single t [] (m1 ())) ]
         @ (if above = [] then [] else [ form (single t [ pick above ] (m1 ())) ])
         @ (if below = [] then [] else [ form (single t [ pick below ] (m1 ())) ])
         @ List.concat_map
             (fun k ->
                List.filter_map
                  (fun low -> Option.map (fun cs -> form (single t cs (m1 ()))) (controls t k ~low))
                  [ true; false ])
             [ 2; 3 ])
      targets
    @ List.concat_map
        (fun cls ->
           let a, b = pair cls in
           let hi = Int.max a b and lo = Int.min a b in
           [ form (two hi lo (m2 ())); form (two lo hi (m2 ()));
             product (two a b (m2 ())) (single b [ a ] (m1 ()));
             product (single a [] (m1 ())) (single b [] (m1 ())) ])
        [ 0; 1; 2; 3 ]

  (* The groups a walk takes and the run of them between carries: the
     lowest bit it holds fixed. *)
  let group_count ~n ~support ~cmask = 1 lsl (n - Bits.popcount support - Bits.popcount cmask)

  let run_of ~support ~cmask groups =
    let fixed = support lor cmask in
    Int.min (fixed land -fixed) groups

  let local_agrees pools ~inline ~n rs (l : Flat_gate.local) =
    let support = l.Flat_gate.support and cmask = l.Flat_gate.controls in
    let groups = group_count ~n ~support ~cmask in
    let minor = support land -support in
    let major = support lxor minor in
    let g = Flat_gate.of_local ~n ~threads:1 l in
    let unused () = Alcotest.fail "a local gate asked for the Run's output buffer" in
    List.for_all
      (fun v ->
         let want = P.copy v in
         R.local ~n want l.Flat_gate.u ~major ~minor ~cmask ~paths:l.Flat_gate.paths;
         let splits = random_splits rs ~run:(run_of ~support ~cmask groups) groups in
         List.for_all
           (fun lanes ->
              Storage.Testing.with_lanes lanes (fun () ->
                  List.for_all
                    (fun pool ->
                       let on_pool = P.copy v and on_inline = P.copy v and split = P.copy v in
                       DG.exec ~pool g ~v:on_pool ~w:unused;
                       DG.exec ~pool:inline g ~v:on_inline ~w:unused;
                       List.iter
                         (fun (lo, hi) ->
                            P.local_apply split l.Flat_gate.u ~major ~minor ~cmask ~held:0
                              ~paths:l.Flat_gate.paths ~lo ~hi)
                         splits;
                       eq want on_pool && eq want on_inline && eq want split)
                    pools))
           Storage.Testing.lanes)
      [ random_vec rs (1 lsl n); special_vec rs (1 lsl n); cancel_vec rs (1 lsl n) ]

  (* A random 2×2 or 4×4 with random paths on random bits under 0 to 3
     random controls, straight through [P.local_apply] on random group
     stripes under every body. *)
  let raw_agrees ~n rs =
    let qs = shuffle rs (List.init n Fun.id) in
    let s = if n >= 2 && Random.State.bool rs then 2 else 1 in
    let k = Random.State.int rs (Int.min 4 (n - s + 1)) in
    let bits = List.filteri (fun i _ -> i < s) qs and ctl = List.filteri (fun i _ -> i >= s && i < s + k) qs in
    let major, minor =
      match bits with [ a; b ] -> (1 lsl a, 1 lsl b) | [ a ] -> (0, 1 lsl a) | _ -> assert false
    in
    let cmask = Bits.all_masks ctl and support = major lor minor in
    let d = 1 lsl s in
    let u = Array.init (2 * d * d) (fun _ -> Random.State.float rs 2.0 -. 1.0) in
    let paths = Random.State.int rs (1 lsl (d * d)) in
    let groups = group_count ~n ~support ~cmask in
    let v = cancel_vec rs (1 lsl n) in
    let want = P.copy v in
    R.local ~n want u ~major ~minor ~cmask ~paths;
    let splits = random_splits rs ~run:(run_of ~support ~cmask groups) groups in
    List.for_all
      (fun lanes ->
         Storage.Testing.with_lanes lanes (fun () ->
             let got = P.copy v in
             List.iter (fun (lo, hi) -> P.local_apply got u ~major ~minor ~cmask ~held:0 ~paths ~lo ~hi) splits;
             eq want got))
      Storage.Testing.lanes

  let local_leg pools =
    Pool.with_pool 1 (fun inline ->
        cases ~name:(P.label ^ " local leg = reference walk, every shape under 0-3 controls")
          ~count:24 ~lo:2 ~hi:8 (fun n rs ->
              List.for_all (local_agrees pools ~inline ~n rs) (local_shapes rs n)
              && List.for_all (fun _ -> raw_agrees ~n rs) (List.init 8 Fun.id)))

  (* The rule ([Cost.local_dispatch]): on every support-1/2 shape at
     n = 6..12 and pools of 1, 2 and 4, a narrow gate compiles to [Local]
     at a price below the Run's and Algorithm 2's pick on its DD
     ([Cost.dispatch] of [Flat_gate.local_dd]; [Cost.local_rate] is under
     [Cost.identity_price], the least a Run path costs), so never to
     Algorithm 2. The shapes include repetitive ones (an uncontrolled
     gate on the top qubit) that Eq. 6 over plain MACs, the paper's rule,
     sends to Algorithm 2 on two or four threads (an h on the top qubit
     is always among them). *)
  let local_pick =
    cases ~name:"a gate with a local form priced lower never compiles to Algorithm 2" ~count:12
      ~lo:6 ~hi:12 (fun n rs ->
          let p = Dd.create () in
          let top_h =
            Flat_gate.local_of_op ~n
              (Circuit.Single { name = "h"; matrix = Gate.h; target = n - 1; controls = [] })
          in
          let picks =
            List.concat_map
              (fun l ->
                 List.map
                   (fun threads ->
                      ( Flat_gate.of_local ~n ~threads l,
                        Cost.dispatch ~n (Cost.breakdown p ~n ~threads (Flat_gate.local_dd p ~n l)) ))
                   [ 1; 2; 4 ])
              (top_h :: local_shapes rs n)
          in
          List.for_all
            (fun ((g : Flat_gate.t), dd) ->
               let d = g.Flat_gate.dispatch in
               match d.Cost.kernel, g.Flat_gate.body with
               | Cost.Dmav_local, Flat_gate.Local _ ->
                 d.Cost.price < dd.Cost.price && not d.Cost.dmav.Cost.cached
               | _ -> false)
            picks
          && List.exists (fun (_, dd) -> dd.Cost.dmav.Cost.c2 < dd.Cost.dmav.Cost.c1) picks)

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
              (fun ~src ~dst -> R.add_into ~src ~src_pos ~dst ~dst_pos ~len)
              (fun ~src ~dst -> P.add_into ~src ~src_pos ~dst ~dst_pos ~len)
         && eq zero_a zero_b
         && same_bits (R.norm2 src) (P.norm2 src))

  (* Pools of 1, 2 and 4 domains for the length of [f]. *)
  (* --- runs of local gates (DESIGN.md §9) ----------------------------- *)

  (* The split bits of a run on [threads] domains that starts with a gate
     on [support]: the highest bits it leaves free, as
     [Dense_kernel.split_bits] takes them, without its small-state cut,
     so that n = 1..12 is split too. *)
  let split_for ~threads ~n support =
    let want =
      if threads <= 1 then 0
      else
        Int.max (Bits.floor_log2 ((2 * threads) - 1))
          (n - Bits.floor_log2 (Dense_kernel.part_bytes / (2 * P.bytes_per_float)))
    in
    let split = ref 0 and q = ref (n - 1) in
    while Bits.popcount !split < want && !q >= 0 do
      if (support lsr !q) land 1 = 0 then split := !split lor (1 lsl !q);
      decr q
    done;
    !split

  (* A random stream of compiled gates on [n] qubits: local forms (the
     form of a random 2×2 under 0 to 3 random controls or of a random
     4×4, with random zero entries, their bits drawn from the top three
     levels half the time, so that supports and controls fall on the
     split bits and off them) and, one in five, a Run gate (a random
     two-qubit op's DD, compiled), which breaks the runs. *)
  let run_stream p rs ~n =
    List.init (1 + Random.State.int rs 14) (fun _ ->
        let qs =
          let all = shuffle rs (List.init n Fun.id) in
          if Random.State.bool rs then
            List.filter (fun q -> q >= n - 3) all @ List.filter (fun q -> q < n - 3) all
          else all
        in
        if n >= 2 && Random.State.int rs 5 = 0 then begin
          let a = List.nth qs 0 and b = List.nth qs 1 in
          let op = Circuit.Two { name = "r2"; matrix = random_two rs; q_hi = a; q_lo = b } in
          Flat_gate.compile p ~n ~threads:1 (Mat_dd.of_op p ~n op)
        end
        else begin
          (* Entries zero a quarter of the time: random paths. *)
          let m d =
            Array.init d (fun _ ->
                Array.init d (fun _ -> if Random.State.int rs 4 = 0 then Cnum.zero else cnum rs))
          in
          let op =
            if n >= 2 && Random.State.bool rs then
              Circuit.Two { name = "l2"; matrix = m 4; q_hi = List.nth qs 0; q_lo = List.nth qs 1 }
            else begin
              let k = Random.State.int rs (Int.min 4 n) in
              Circuit.Single
                { name = "l1"; matrix = m 2; target = List.hd qs;
                  controls = List.filteri (fun i _ -> i >= 1 && i <= k) qs }
            end
          in
          Flat_gate.of_local ~n ~threads:1 (Flat_gate.local_of_op ~n op)
        end)

  let local_of (g : Flat_gate.t) =
    match g.Flat_gate.body with Flat_gate.Local l -> Some l | Flat_gate.Dmav _ -> None

  (* [gates] from [v]: one at a time on [pool] ([exec]: a local gate is a
     one-gate run), or cut into runs as the flat phase cuts them, each
     applied by one [local_run]. A Run gate writes [w], which becomes
     the state. *)
  let apply_stream ~pool ~runs ~n gates v =
    let v = ref (P.copy v) and w = ref (P.create (P.length v)) in
    let gates = Array.of_list gates in
    let i = ref 0 in
    while !i < Array.length gates do
      let base = !i in
      (match local_of gates.(base) with
       | Some l when runs ->
         let split = split_for ~threads:(Pool.size pool) ~n l.Flat_gate.support in
         i := base + 1;
         while
           !i < Array.length gates
           && (match local_of gates.(!i) with
               | Some l -> l.Flat_gate.support land split = 0
               | None -> false)
         do
           incr i
         done;
         DG.local_run ~pool ~split !v ~count:(!i - base)
           ~gate:(fun k -> gates.(base + k))
           ~before:ignore ~after:(fun _ _ -> ())
       | _ ->
         DG.exec ~pool gates.(base) ~v:!v ~w:(fun () -> !w);
         (match local_of gates.(base) with
          | Some _ -> ()
          | None ->
            let t = !v in
            v := !w;
            w := t);
         i := base + 1)
    done;
    !v

  (* Runs on pools of 1, 2 and 3 domains (two split bits, four parts, a
     domain holding two) give the bytes of the same gates applied one at
     a time on one domain, on random vectors and on cancelling ones. *)
  let runs_agree ~inline pools =
    cases ~name:(P.label ^ " runs on 1-3 domains = one gate at a time") ~count:60 ~lo:1 ~hi:14
      (fun n rs ->
         let p = Dd.create () in
         let gates = run_stream p rs ~n in
         List.for_all
           (fun v ->
              let want = apply_stream ~pool:inline ~runs:false ~n gates v in
              List.for_all (fun pool -> eq want (apply_stream ~pool ~runs:true ~n gates v)) pools)
           [ random_vec rs (1 lsl n); cancel_vec rs (1 lsl n) ])

  (* A raise in [before] at gate [k] of a run on 2 and 3 domains: the
     exception comes out of the run, domain 0's part holds the first [k]
     gates, and every other part a whole prefix of the run's gates: its
     domain stopped at a gate boundary (behind domain 0 or ahead of it),
     never inside a gate. *)
  let cancel_in_run ~inline pools =
    let n = 12 and rs = Random.State.make [| 61 |] in
    let gates =
      List.init 24 (fun i ->
          Flat_gate.of_local ~n ~threads:1
            (Flat_gate.local_of_op ~n
               (Circuit.Single
                  { name = "u"; matrix = random_single rs; target = i mod (n - 2); controls = [] })))
    in
    let v = random_vec rs (1 lsl n) in
    (* prefix.(m): the first m gates applied. *)
    let prefix =
      Array.init 25 (fun m ->
          apply_stream ~pool:inline ~runs:false ~n (List.filteri (fun i _ -> i < m) gates) v)
    in
    List.iter
      (fun pool ->
         let threads = Pool.size pool in
         let split = split_for ~threads ~n 0 in
         let parts = 1 lsl Bits.popcount split in
         List.iter
           (fun k ->
              let got = P.copy v in
              let arr = Array.of_list gates in
              Alcotest.check_raises "the run raises" Exit (fun () ->
                  DG.local_run ~pool ~split got ~count:(Array.length arr)
                    ~gate:(fun i -> arr.(i))
                    ~before:(fun i -> if i = k then raise Exit)
                    ~after:(fun _ _ -> ()));
              for part = 0 to parts - 1 do
                let ones = Bits.deposit part split in
                let inside i = i land split = ones in
                let whole m =
                  Seq.for_all
                    (fun i ->
                       (not (inside i))
                       || (same_bits (P.get_re got i) (P.get_re prefix.(m) i)
                           && same_bits (P.get_im got i) (P.get_im prefix.(m) i)))
                    (Seq.init (1 lsl n) Fun.id)
                in
                let m = List.find_opt whole (List.init 25 Fun.id) in
                match m with
                | Some m when part = 0 && m <> k ->
                  Alcotest.failf "pool %d, raise at %d: domain 0 ran %d gates" threads k m
                | Some _ -> ()
                | None -> Alcotest.failf "pool %d, raise at %d: part %d torn" threads k part
              done)
           [ 0; 5; 23 ])
      pools

  let with_pools f =
    Pool.with_pool 1 (fun p1 -> Pool.with_pool 2 (fun p2 -> Pool.with_pool 4 (fun p4 -> f p1 p2 p4)))

  let run_tests () =
    Pool.with_pool 1 (fun p1 ->
        Pool.with_pool 2 (fun p2 ->
            Pool.with_pool 3 (fun p3 ->
                check_all [ runs_agree ~inline:p1 [ p1; p2; p3 ] ];
                cancel_in_run ~inline:p1 [ p2; p3 ])))

  let tests () =
    with_pools (fun p1 p2 p4 ->
        check_all [ dense_single p2; dense_two [ p1; p2 ]; dmav [ p1; p2; p4 ]; stripes ])

  let split_tests () = with_pools (fun p1 p2 p4 -> check_all [ dense_splits [ p1; p2; p4 ] ])

  let identity_tests () =
    with_pools (fun p1 p2 p4 ->
        identity_roots [ p1; p2; p4 ];
        check_all [ identity_blocks [ p1; p2; p4 ] ])

  let batch_tests () =
    with_pools (fun p1 p2 p4 ->
        replication_roots [ p1; p2; p4 ];
        fused_streams [ p1; p2; p4 ])

  let compiled_tests () = with_pools (fun p1 p2 p4 -> compiled_streams [ p1; p2; p4 ])

  let local_tests () =
    Pool.with_pool 1 (fun p1 -> Pool.with_pool 2 (fun p2 -> check_all [ local_leg [ p1; p2 ] ]))

  (* Minor words at n = 14 on a size-1 pool (jobs run inline, so every
     word is seen): one dense single-qubit gate and one dense two-qubit
     gate (q_hi below q_lo); one uncached DMAV gate compiled outside the
     count, as the flat phase's planner does, so what is
     counted is what the executor pays per gate; the whole
     compile-and-run path ([apply_nocache]: export, tasks, pieces, run)
     of that gate and of the largest gate of a fused supremacy stream,
     each with its gate size (arena nodes + Run calls); and the local
     leg of a CNOT onto qubit 0 on a one-part run. *)
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
        let size m =
          let g = Flat_gate.program p ~n ~cached:false (Cost.breakdown p ~n ~threads:1 m) in
          Array.length g.Flat_gate.arena.Storage.lv + Flat_gate.pieces g
        in
        let c = Suite.generate ~seed:3 ~gates:120 Suite.Supremacy ~n in
        let fused = Fusion_ref.fused_dds p ~n (Array.to_list c.Circuit.ops) in
        let largest = List.fold_left (fun a b -> if size b > size a then b else a) m fused in
        let g = Flat_gate.program p ~n ~cached:false (Cost.breakdown p ~n ~threads:1 m) in
        let l =
          Flat_gate.local_of_op ~n
            (Circuit.Single { name = "cx"; matrix = Gate.x; target = 0; controls = [ 9 ] })
        in
        ( words (fun () -> DK.single ~pool ~n v Gate.h ~target:3 ~controls:[ 5 ]),
          words (fun () -> DK.two ~pool ~n v Gate.iswap ~q_hi:3 ~q_lo:9),
          words (fun () -> DG.run ~pool g ~v ~w),
          List.map
            (fun m -> (words (fun () -> DG.apply_nocache p ~pool ~n m ~v ~w), size m))
            [ m; largest ],
          words (fun () ->
              DK.local_part v l.Flat_gate.u ~support:l.Flat_gate.support
                ~controls:l.Flat_gate.controls ~paths:l.Flat_gate.paths ~split:0 ~part:0) ))
end

module K64 = Suite_for (Storage.F64)
module K32 = Suite_for (Storage.F32)

(* The local leg allocates nothing on one domain. The dense kernel
   flattens the gate into one small float array; the
   DMAV kernel runs a compiled gate and builds only the pool job closure.
   Neither may grow with 2ⁿ, and the storage kind must not change the
   count. Compiling a gate allocates its arena copy, task and piece
   columns and export tables: at most 1024 + 32 words per arena node or
   Run call (measured: 679 words for a 3-node gate, 23 per node at 594
   nodes), never anything of 2ⁿ or of the package's size. *)
let test_allocation () =
  let d64, t64, m64, c64, l64 = K64.gate_words () and d32, t32, m32, c32, l32 = K32.gate_words () in
  Alcotest.(check (float 0.0)) "local gate: no words at f64" 0.0 l64;
  Alcotest.(check (float 0.0)) "local gate: no words at f32" 0.0 l32;
  Alcotest.(check (float 0.0)) "dense gate: f32 words = f64 words" d64 d32;
  Alcotest.(check (float 0.0)) "dense two-qubit gate: f32 words = f64 words" t64 t32;
  Alcotest.(check (float 0.0)) "dmav gate: f32 words = f64 words" m64 m32;
  Alcotest.(check (list (pair (float 0.0) int))) "compile+run: f32 words = f64 words" c64 c32;
  List.iter
    (fun (what, words) ->
       if words > 256.0 then
         Alcotest.failf "%s allocated %.0f minor words at n = 14" what words)
    [ ("dense gate", d64); ("dense two-qubit gate", t64); ("dmav gate", m64) ];
  List.iter
    (fun (words, size) ->
       if words > 1024.0 +. (32.0 *. float_of_int size) then
         Alcotest.failf "compile+run of a %d-node/call gate allocated %.0f minor words at n = 14"
           size words)
    c64

(* Every single-qubit op's form counts its DD's paths
   ([Flat_gate.local_paths] against [Dd.priced_paths] of [Mat_dd.of_op],
   all three counts exactly) under 0 to 5 controls anywhere around the
   target, at n = 2..10, on random, permutation, diagonal, phase and
   scalar matrices (a controlled scalar acts on its controls only) and a
   matrix with a zero row. *)
let test_form_paths_under_controls () =
  let rs = Random.State.make [| 47 |] in
  let c re im = Cnum.make re im in
  let scalar z = [| [| z; Cnum.zero |]; [| Cnum.zero; z |] |] in
  for n = 2 to 10 do
    for _ = 1 to 16 do
      let p = Dd.create () in
      let target = Random.State.int rs n in
      let others =
        List.map snd
          (List.sort compare
             (List.filter_map
                (fun q -> if q = target then None else Some (Random.State.bits rs, q))
                (List.init n Fun.id)))
      in
      let k = Random.State.int rs (Int.min 6 n) in
      let controls = List.filteri (fun i _ -> i < k) others in
      let matrix =
        [| Gate.u3 (Random.State.float rs 6.3) (Random.State.float rs 6.3) (Random.State.float rs 6.3);
           Gate.x; Gate.z; Gate.h; Gate.phase (Random.State.float rs 6.3); Gate.id2;
           scalar (c (-1.0) 0.0); scalar (c 0.6 0.8);
           [| [| Cnum.one; Cnum.one |]; [| Cnum.zero; Cnum.zero |] |] |].(Random.State.int rs 9)
      in
      let op = Circuit.Single { name = "cu"; matrix; target; controls } in
      let what =
        Printf.sprintf "n = %d, target %d, controls [%s]" n target
          (String.concat "," (List.map string_of_int controls))
      in
      let want = Dd.priced_paths p (Mat_dd.of_op p ~n op) in
      let got = Flat_gate.local_paths ~n (Flat_gate.local_of_op ~n op) in
      let check field w g = Alcotest.(check (float 0.0)) (what ^ ": " ^ field) w g in
      check "terminal paths" want.Dd.terminal got.Dd.terminal;
      check "stripe MACs" want.Dd.stripe got.Dd.stripe;
      check "visits" want.Dd.visits got.Dd.visits
    done
  done

(* The dense and local stubs' widest body is chosen at load time from
   the CPU: [Storage.dense_lanes] must be 8 exactly on an x86-64 host
   whose /proc/cpuinfo flags list avx512f, else 4 exactly when they list
   avx2, else 2 (aarch64 lists "Features", not "flags"), so a detection
   that silently fails shows up here. The test-only bodies are those up
   to it. A dense gate reports the choice on the statevec.dense.lanes
   gauge. *)
let test_dense_lanes () =
  let lanes = Storage.dense_lanes in
  if lanes <> 2 && lanes <> 4 && lanes <> 8 then Alcotest.failf "dense_lanes = %d" lanes;
  Alcotest.(check (list int)) "test-only bodies" (List.filter (fun l -> l <= lanes) [ 2; 4; 8 ])
    Storage.Testing.lanes;
  (if Sys.file_exists "/proc/cpuinfo" then
     let flags =
       In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
       |> String.split_on_char '\n'
       |> List.filter (fun l -> String.starts_with ~prefix:"flags" l)
     in
     let has flag =
       flags <> []
       && List.for_all
            (fun l -> List.mem flag (String.split_on_char ' ' (String.trim l)))
            flags
     in
     Alcotest.(check int) "dense_lanes from /proc/cpuinfo"
       (if has "avx512f" then 8 else if has "avx2" then 4 else 2)
       lanes);
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
        Alcotest.test_case "f64 compiled gates = package-view run (bits)" `Quick
          K64.compiled_tests;
        Alcotest.test_case "f32 compiled gates = package-view run (bits)" `Quick
          K32.compiled_tests;
        Alcotest.test_case "f64 local leg = OCaml reference (bits)" `Quick K64.local_tests;
        Alcotest.test_case "f32 local leg = OCaml reference (bits)" `Quick K32.local_tests;
        Alcotest.test_case "local leg priced lower never compiles to Algorithm 2" `Quick
          (fun () ->
             (* The premise of taking the local leg by rule: both local
                rates sit under the least a Run row
                costs, and Eq. 6's block term is 2ⁿ/(4t) per buffer. *)
             Alcotest.(check bool) "local rates < identity price" true
               (Cost.local_rate ~support:1 < Cost.identity_price
                && Cost.local_rate ~support:3 < Cost.identity_price);
             Alcotest.(check int) "SIMD width" 4 Cost.simd_width;
             check_all [ K64.local_pick ]);
        Alcotest.test_case "dense_lanes matches the host's AVX-512F and AVX2 flags" `Quick
          test_dense_lanes;
        Alcotest.test_case "forms under 0-5 controls count their DDs' paths" `Quick
          test_form_paths_under_controls;
        Alcotest.test_case "f64 runs on 1-3 domains = one gate at a time (bits)" `Quick
          K64.run_tests;
        Alcotest.test_case "f32 runs on 1-3 domains = one gate at a time (bits)" `Quick
          K32.run_tests ] ) ]
