let ceq msg a b =
  if not (Cnum.equal ~tol:1e-9 a b) then
    Alcotest.failf "%s: expected %s, got %s" msg (Cnum.to_string a) (Cnum.to_string b)

(* -------------------------------------------------------------------- *)
(* Canonicity and normalization                                           *)
(* -------------------------------------------------------------------- *)

let test_canonicity_same_vector_same_node () =
  let p = Dd.create () in
  let buf = Buf.of_array [| Cnum.make 0.6 0.0; Cnum.make 0.0 0.8 |] in
  let e1 = Vec_dd.of_buf p buf in
  let e2 = Vec_dd.of_buf p (Buf.copy buf) in
  Alcotest.(check bool) "same physical node" true (Dd.vtgt e1 = Dd.vtgt e2);
  ceq "same weight" (Dd.vw p e1) (Dd.vw p e2);
  (* Sharing must survive the sweep and the unique-table rebuild that
     [compact] does, also after the table has grown several times. *)
  let same_root msg e = Alcotest.(check bool) msg true (e = e1) in
  (* Each compact has garbage to sweep, or it skips the rebuild. *)
  let garbage () = ignore (Vec_dd.of_buf p (Test_util.random_state ~seed:3 8)) in
  garbage ();
  Dd.compact p ~vroots:[ e1 ] ~mroots:[];
  same_root "rebuilt after compact" (Vec_dd.of_buf p buf);
  let rng = Rng.create 5 in
  let big_buf =
    Buf.init (1 lsl 15) (fun _ -> Cnum.make (Rng.float rng 1.0) (Rng.float rng 1.0))
  in
  let big = Vec_dd.of_buf p big_buf in
  (* 4x the node count at which a fresh package first grows its table. *)
  Alcotest.(check bool) "enough nodes to grow the table" true (Dd.live_vnodes p > 16384);
  same_root "rebuilt beside a large DD" (Vec_dd.of_buf p buf);
  garbage ();
  Dd.compact p ~vroots:[ e1; big ] ~mroots:[];
  Alcotest.(check bool) "large DD rebuilt after compact" true
    (Vec_dd.of_buf p big_buf = big);
  same_root "rebuilt after a grown compact" (Vec_dd.of_buf p buf);
  Dd.compact p ~vroots:[ e1 ] ~mroots:[];
  same_root "rebuilt after dropping the large DD" (Vec_dd.of_buf p buf)

let test_canonicity_scalar_multiple_shares_node () =
  (* A vector and twice the vector must share the node, differing only in
     the incoming weight. *)
  let p = Dd.create () in
  let v = [| Cnum.make 0.25 0.1; Cnum.make (-0.3) 0.2; Cnum.zero; Cnum.make 0.05 0.0 |] in
  let w = Array.map (Cnum.scale 2.0) v in
  let e1 = Vec_dd.of_buf p (Buf.of_array v) in
  let e2 = Vec_dd.of_buf p (Buf.of_array w) in
  Alcotest.(check bool) "shared node" true (Dd.vtgt e1 = Dd.vtgt e2);
  ceq "weight doubled" (Cnum.scale 2.0 (Dd.vw p e1)) (Dd.vw p e2)

let test_normalization_invariant () =
  (* Outgoing weights of any node have magnitude <= 1 and at least one
     has magnitude 1 (max-magnitude normalization). *)
  let p = Dd.create () in
  let buf = Test_util.random_state ~seed:3 5 in
  let root = Vec_dd.of_buf p buf in
  let rec walk (n : Dd.vnode) =
    if n <> Dd.vterminal then begin
      let e0 = Dd.v0 p n and e1 = Dd.v1 p n in
      let m0 = Cnum.norm (Dd.vw p e0) and m1 = Cnum.norm (Dd.vw p e1) in
      if m0 > 1.0 +. 1e-9 || m1 > 1.0 +. 1e-9 then
        Alcotest.failf "outgoing weight above 1: %f %f" m0 m1;
      if Float.max m0 m1 < 1.0 -. 1e-9 then
        Alcotest.failf "no unit-magnitude outgoing weight: %f %f" m0 m1;
      if not (Dd.vedge_is_zero e0) then walk (Dd.vtgt e0);
      if not (Dd.vedge_is_zero e1) then walk (Dd.vtgt e1)
    end
  in
  walk (Dd.vtgt root)

let test_zero_collapses () =
  let p = Dd.create () in
  let e = Dd.make_vnode p 0 Dd.vzero Dd.vzero in
  Alcotest.(check bool) "zero node collapses to zero edge" true (Dd.vedge_is_zero e);
  let m = Dd.make_mnode p 0 Dd.mzero Dd.mzero Dd.mzero Dd.mzero in
  Alcotest.(check bool) "zero matrix node too" true (Dd.medge_is_zero m);
  (* Scaling by zero collapses. *)
  let one = Vec_dd.basis_state p 2 1 in
  Alcotest.(check bool) "scale by 0" true (Dd.vedge_is_zero (Dd.vscale p one Cnum.zero))

let test_near_zero_weights_snap () =
  let p = Dd.create () in
  let buf = Buf.of_array [| Cnum.one; Cnum.make 1e-14 1e-14 |] in
  let e = Vec_dd.of_buf p buf in
  Alcotest.(check bool) "tiny amplitude snapped to zero edge" true
    (Dd.vedge_is_zero (Dd.v1 p (Dd.vtgt e)))

(* -------------------------------------------------------------------- *)
(* Structure sizes                                                        *)
(* -------------------------------------------------------------------- *)

let test_node_counts () =
  let p = Dd.create () in
  Alcotest.(check int) "zero state is a chain" 6 (Dd.vnode_count p (Vec_dd.zero_state p 6));
  Alcotest.(check int) "basis state is a chain" 6
    (Dd.vnode_count p (Vec_dd.basis_state p 6 43));
  (* Uniform superposition also compresses to a chain. *)
  let dim = 1 lsl 6 in
  let uniform = Buf.init dim (fun _ -> Cnum.of_float (1.0 /. 8.0)) in
  Alcotest.(check int) "uniform state is a chain" 6
    (Dd.vnode_count p (Vec_dd.of_buf p uniform));
  Alcotest.(check int) "zero edge has no nodes" 0 (Dd.vnode_count p Dd.vzero);
  Alcotest.(check int) "identity matrix is a chain" 6
    (Dd.mnode_count p (Mat_dd.identity p 6))

(* Counts and compactions take turns on one package for well past the
   255 traversal stamps, so stale marks from every earlier traversal and
   the wrap-around clear are both exercised. *)
let test_node_counts_across_stamp_wrap () =
  let p = Dd.create () in
  let dense = Vec_dd.of_buf p (Test_util.random_state ~seed:5 7) in
  let chain = Vec_dd.basis_state p 7 43 in
  let nd = Dd.vnode_count p dense and nc = Dd.vnode_count p chain in
  let m = Mat_dd.identity p 7 in
  let live = ref (-1) in
  for k = 1 to 700 do
    Alcotest.(check int) "dense count" nd (Dd.vnode_count p dense);
    Alcotest.(check int) "chain count" nc (Dd.vnode_count p chain);
    Alcotest.(check int) "matrix count" 7 (Dd.mnode_count p m);
    if k mod 100 = 0 then begin
      Dd.compact p ~vroots:[ dense; chain ] ~mroots:[ m ];
      if !live < 0 then live := Dd.live_vnodes p;
      Alcotest.(check int) "every compaction keeps the same nodes" !live (Dd.live_vnodes p);
      Alcotest.(check int) "matrix nodes kept" 7 (Dd.live_mnodes p)
    end
  done;
  Alcotest.(check bool) "the roots' nodes survive" true (!live >= nd && !live <= nd + nc)

let test_random_state_is_dense () =
  let p = Dd.create () in
  let buf = Test_util.random_state ~seed:5 7 in
  let e = Vec_dd.of_buf p buf in
  (* A generic random state has no structure: close to 2^n - 1 nodes. *)
  Alcotest.(check bool) "dense DD" true (Dd.vnode_count p e > 100)

(* -------------------------------------------------------------------- *)
(* Round trips and amplitude walks                                        *)
(* -------------------------------------------------------------------- *)

let test_roundtrip_random () =
  List.iter
    (fun seed ->
       let p = Dd.create () in
       let buf = Test_util.random_state ~seed 6 in
       let e = Vec_dd.of_buf p buf in
       let back = Vec_dd.to_buf p 6 e in
       Test_util.check_close ~tol:1e-9 (Printf.sprintf "roundtrip seed %d" seed) buf back)
    [ 1; 2; 3; 4; 5 ]

let test_amplitude_walk_matches_to_buf () =
  let p = Dd.create () in
  let buf = Test_util.random_state ~seed:9 5 in
  let e = Vec_dd.of_buf p buf in
  for i = 0 to 31 do
    ceq (Printf.sprintf "amplitude %d" i) (Buf.get buf i) (Dd.vamplitude p e i)
  done

let test_vec_norm2 () =
  let p = Dd.create () in
  let buf = Test_util.random_state ~seed:11 6 in
  let e = Vec_dd.of_buf p buf in
  Alcotest.(check (float 1e-9)) "norm via DD" (Buf.norm2 buf) (Vec_dd.norm2 p e);
  Alcotest.(check (float 0.0)) "zero norm" 0.0 (Vec_dd.norm2 p Dd.vzero)

(* -------------------------------------------------------------------- *)
(* Arithmetic                                                             *)
(* -------------------------------------------------------------------- *)

let test_vadd_matches_dense () =
  let p = Dd.create () in
  let a = Test_util.random_state ~seed:21 5 in
  let b = Test_util.random_state ~seed:22 5 in
  let ea = Vec_dd.of_buf p a and eb = Vec_dd.of_buf p b in
  let sum = Dd.vadd p ea eb in
  for i = 0 to 31 do
    ceq (Printf.sprintf "sum[%d]" i) (Cnum.add (Buf.get a i) (Buf.get b i))
      (Dd.vamplitude p sum i)
  done

let test_vadd_identities () =
  let p = Dd.create () in
  let a = Vec_dd.of_buf p (Test_util.random_state ~seed:23 4) in
  let z = Dd.vadd p a Dd.vzero in
  Alcotest.(check bool) "a + 0 = a (same node)" true (Dd.vtgt z = Dd.vtgt a);
  ceq "a + 0 weight" (Dd.vw p a) (Dd.vw p z);
  (* a + (-a) = 0 *)
  let neg = Dd.vscale p a Cnum.minus_one in
  Alcotest.(check bool) "a - a = 0" true (Dd.vedge_is_zero (Dd.vadd p a neg))

let test_vadd_cache_consistency () =
  (* Repeated additions with shared structure must stay exact. *)
  let p = Dd.create () in
  let a = Vec_dd.of_buf p (Test_util.random_state ~seed:24 5) in
  let two_a = Dd.vadd p a a in
  let four_a = Dd.vadd p two_a two_a in
  for i = 0 to 31 do
    ceq "4a" (Cnum.scale 4.0 (Dd.vamplitude p a i)) (Dd.vamplitude p four_a i)
  done;
  Alcotest.(check bool) "4a shares a's node" true (Dd.vtgt four_a = Dd.vtgt a)

let dense_mv n m v =
  let dim = 1 lsl n in
  Array.init dim (fun r ->
      let acc = ref Cnum.zero in
      for c = 0 to dim - 1 do
        acc := Cnum.add !acc (Cnum.mul m.(r).(c) v.(c))
      done;
      !acc)

let test_mv_matches_dense () =
  let p = Dd.create () in
  let n = 4 in
  List.iter
    (fun (target, controls) ->
       let g = Gate.u3 0.7 0.3 1.1 in
       let mdd = Mat_dd.of_single p ~n ~target ~controls g in
       let mdense = Mat_dd.to_dense p ~n mdd in
       let vbuf = Test_util.random_state ~seed:31 n in
       let vdd = Vec_dd.of_buf p vbuf in
       let rdd = Dd.mv p mdd vdd in
       let expect = dense_mv n mdense (Buf.to_array vbuf) in
       for i = 0 to (1 lsl n) - 1 do
         ceq (Printf.sprintf "mv[%d] target=%d" i target) expect.(i) (Dd.vamplitude p rdd i)
       done)
    [ (0, []); (3, []); (1, [ 0 ]); (0, [ 3 ]); (2, [ 0; 3 ]) ]

let test_mm_matches_dense () =
  let p = Dd.create () in
  let n = 3 in
  let a = Mat_dd.of_single p ~n ~target:0 ~controls:[] Gate.h in
  let b = Mat_dd.of_single p ~n ~target:1 ~controls:[ 0 ] (Gate.rz 0.9) in
  let ab = Dd.mm p a b in
  let ad = Mat_dd.to_dense p ~n a and bd = Mat_dd.to_dense p ~n b in
  let dim = 1 lsl n in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let acc = ref Cnum.zero in
      for k = 0 to dim - 1 do
        acc := Cnum.add !acc (Cnum.mul ad.(r).(k) bd.(k).(c))
      done;
      ceq (Printf.sprintf "mm[%d][%d]" r c) !acc (Dd.mentry p ab r c)
    done
  done

let test_mm_unitary_times_adjoint () =
  let p = Dd.create () in
  let n = 4 in
  let g = Gate.u3 0.4 1.2 0.8 in
  let m = Mat_dd.of_single p ~n ~target:2 ~controls:[ 0 ] g in
  let mdag = Mat_dd.of_single p ~n ~target:2 ~controls:[ 0 ] (Gate.adjoint g) in
  let prod = Dd.mm p m mdag in
  Alcotest.(check bool) "U·U† = I" true (Mat_dd.is_identity p ~n prod)

let test_mv_chain_equals_statevec () =
  (* Apply a full random circuit through DDs and compare amplitudes. *)
  List.iter
    (fun seed ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       let dd_amps = Driver.amplitudes (Test_util.run_dd ~package:p c) in
       let sv = Apply.run c in
       Test_util.check_close ~tol:1e-9
         (Printf.sprintf "ddsim = statevec (seed %d)" seed) dd_amps sv.State.amps)
    [ 41; 42; 43 ]

(* -------------------------------------------------------------------- *)
(* Gate matrix construction                                               *)
(* -------------------------------------------------------------------- *)

let test_gate_dd_entries () =
  let p = Dd.create () in
  let n = 3 in
  (* H on qubit 1: check entries against the Kronecker structure. *)
  let m = Mat_dd.of_single p ~n ~target:1 ~controls:[] Gate.h in
  let s = 1.0 /. sqrt 2.0 in
  ceq "(0,0)" (Cnum.of_float s) (Dd.mentry p m 0 0);
  ceq "(0,2)" (Cnum.of_float s) (Dd.mentry p m 0 2);
  ceq "(2,2)" (Cnum.of_float (-.s)) (Dd.mentry p m 2 2);
  ceq "(0,1)" Cnum.zero (Dd.mentry p m 0 1);
  ceq "(1,1)" (Cnum.of_float s) (Dd.mentry p m 1 1);
  ceq "(5,7)" (Cnum.of_float s) (Dd.mentry p m 5 7)

let test_gate_dd_node_count_linear () =
  (* Local gates must have O(n) DD nodes even on wide registers. *)
  let p = Dd.create () in
  let n = 20 in
  let m = Mat_dd.of_single p ~n ~target:10 ~controls:[ 3; 17 ] Gate.x in
  Alcotest.(check bool) "O(n) nodes" true (Dd.mnode_count p m <= 3 * n)

let test_controlled_gate_dd_vs_statevec () =
  (* Controls below and above the target, compared against the statevec
     semantics on random states. *)
  let n = 5 in
  List.iter
    (fun (target, controls) ->
       let p = Dd.create () in
       let g = Gate.u3 0.9 0.2 0.5 in
       let mdd = Mat_dd.of_single p ~n ~target ~controls g in
       let vbuf = Test_util.random_state ~seed:55 n in
       let vdd = Vec_dd.of_buf p vbuf in
       let rdd = Dd.mv p mdd vdd in
       let st = State.of_buf n (Buf.copy vbuf) in
       Apply.single st g ~target ~controls;
       for i = 0 to (1 lsl n) - 1 do
         ceq
           (Printf.sprintf "t=%d ctrl=[%s] amp %d" target
              (String.concat "," (List.map string_of_int controls)) i)
           (Buf.get st.State.amps i) (Dd.vamplitude p rdd i)
       done)
    [ (0, [ 1 ]); (4, [ 0 ]); (2, [ 0; 4 ]); (0, [ 2; 3; 4 ]); (3, [ 1; 2 ]) ]

let test_two_qubit_gate_dd_vs_statevec () =
  let n = 4 in
  List.iter
    (fun (q_hi, q_lo) ->
       let p = Dd.create () in
       let g = Gate.fsim 0.8 0.3 in
       let mdd = Mat_dd.of_two p ~n ~q_hi ~q_lo g in
       let vbuf = Test_util.random_state ~seed:66 n in
       let vdd = Vec_dd.of_buf p vbuf in
       let rdd = Dd.mv p mdd vdd in
       let st = State.of_buf n (Buf.copy vbuf) in
       Apply.two st g ~q_hi ~q_lo;
       for i = 0 to (1 lsl n) - 1 do
         ceq (Printf.sprintf "fsim(%d,%d) amp %d" q_hi q_lo i)
           (Buf.get st.State.amps i) (Dd.vamplitude p rdd i)
       done)
    [ (3, 0); (0, 3); (2, 1); (1, 2); (3, 2) ]

let test_identity_dd () =
  let p = Dd.create () in
  Alcotest.(check bool) "identity" true (Mat_dd.is_identity p ~n:3 (Mat_dd.identity p 3))

(* -------------------------------------------------------------------- *)
(* Package maintenance                                                    *)
(* -------------------------------------------------------------------- *)

let test_compact_preserves_live_data () =
  let p = Dd.create () in
  let live = Vec_dd.of_buf p (Test_util.random_state ~seed:77 5) in
  let before = Vec_dd.to_buf p 5 live in
  (* Create garbage. *)
  for seed = 1 to 10 do
    ignore (Vec_dd.of_buf p (Test_util.random_state ~seed 5))
  done;
  let before_nodes = Dd.live_vnodes p in
  Dd.compact p ~vroots:[ live ] ~mroots:[];
  let after_nodes = Dd.live_vnodes p in
  Alcotest.(check bool) "garbage collected" true (after_nodes < before_nodes);
  Alcotest.(check int) "exactly the live nodes remain" (Dd.vnode_count p live) after_nodes;
  let after = Vec_dd.to_buf p 5 live in
  Test_util.check_close ~tol:0.0 "live data unchanged" before after

let test_compact_then_continue () =
  (* Operations must still be correct after a compaction. *)
  let p = Dd.create () in
  let n = 4 in
  let state = ref (Vec_dd.zero_state p n) in
  let c = Test_util.random_circuit ~seed:88 ~gates:20 n in
  Array.iteri
    (fun i op ->
       state := Dd.mv p (Mat_dd.of_op p ~n op) !state;
       if i mod 5 = 0 then Dd.compact p ~vroots:[ !state ] ~mroots:[])
    c.Circuit.ops;
  let sv = Apply.run c in
  Test_util.check_close ~tol:1e-9 "post-compaction result"
    (Vec_dd.to_buf p n !state) sv.State.amps

let test_memory_accounting () =
  let p = Dd.create () in
  let m0 = Dd.memory_bytes p in
  ignore (Vec_dd.of_buf p (Test_util.random_state ~seed:99 8));
  Alcotest.(check bool) "memory grows with nodes" true (Dd.memory_bytes p > m0);
  Alcotest.(check bool) "stats string" true (String.length (Dd.stats p) > 10)

let test_mnode_count_gc () =
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n:6 ~target:3 ~controls:[] Gate.h in
  let count = Dd.mnode_count p m in
  Dd.compact p ~vroots:[] ~mroots:[ m ];
  Alcotest.(check int) "matrix nodes survive via mroots" count (Dd.live_mnodes p);
  Dd.compact p ~vroots:[] ~mroots:[];
  Alcotest.(check int) "dropped without roots" 0 (Dd.live_mnodes p)

let test_gc_every_gate_differential () =
  (* Compaction after every single gate must be amplitude-invariant: GC
     only moves dead slots to the free list and bumps the epoch; live
     structure, ctable values and recomputed cache entries are canonical,
     so the final state is bit-identical to a run that never collects. *)
  List.iter
    (fun seed ->
       let n = 5 in
       let c = Test_util.random_circuit ~seed ~gates:30 n in
       let base = Test_util.run_dd ~compact_every:0 c in
       let gc = Test_util.run_dd ~compact_every:1 c in
       Test_util.check_close ~tol:0.0
         (Printf.sprintf "per-gate GC invariant (seed %d)" seed)
         (Driver.amplitudes base) (Driver.amplitudes gc);
       let p, _ = Test_util.dd_state gc in
       Alcotest.(check bool) "vector free list nonzero after GC" true
         (Dd.vfree_slots p > 0);
       Alcotest.(check bool) "matrix free list nonzero after GC" true
         (Dd.mfree_slots p > 0);
       Alcotest.(check int) "epoch bumped once per gate" (Circuit.num_gates c)
         (Dd.epoch p))
    [ 7; 8; 9 ]

let test_freelist_reuse_no_stale_cache () =
  (* The hazard the epoch stamps exist for: a compute-cache entry recorded
     before a GC is keyed on packed edges whose arena slots may be
     reissued afterwards. Rebuilding the same vectors after a full
     collection re-allocates from the free list, so the new packed edges
     can collide bit-for-bit with pre-GC cache keys whose *result* edges
     now dangle into recycled slots. A stale hit would return garbage;
     the epoch check forces a recompute instead. *)
  let p = Dd.create () in
  let n = 5 in
  let dim = 1 lsl n in
  let check_sum msg abuf bbuf sum =
    for i = 0 to dim - 1 do
      ceq
        (Printf.sprintf "%s [%d]" msg i)
        (Cnum.add (Buf.get abuf i) (Buf.get bbuf i))
        (Dd.vamplitude p sum i)
    done
  in
  let abuf = Test_util.random_state ~seed:301 n in
  let bbuf = Test_util.random_state ~seed:302 n in
  let a = Vec_dd.of_buf p abuf and b = Vec_dd.of_buf p bbuf in
  check_sum "pre-GC sum" abuf bbuf (Dd.vadd p a b);
  (* Drop everything; every slot lands on the free list. *)
  Dd.compact p ~vroots:[] ~mroots:[];
  Alcotest.(check int) "full GC leaves no live nodes" 0 (Dd.live_vnodes p);
  let free_after_gc = Dd.vfree_slots p in
  Alcotest.(check bool) "free list populated by GC" true (free_after_gc > 0);
  (* Identical construction sequence on the emptied arena: the recycled
     indices make stale key collisions overwhelmingly likely if the epoch
     check were broken. *)
  let a' = Vec_dd.of_buf p abuf and b' = Vec_dd.of_buf p bbuf in
  Alcotest.(check bool) "rebuild drew from the free list" true
    (Dd.vfree_slots p < free_after_gc);
  check_sum "post-GC rebuild sum" abuf bbuf (Dd.vadd p a' b');
  (* Hammer a few more GC/rebuild cycles with fresh vectors so different
     slot orderings are exercised too. *)
  List.iter
    (fun seed ->
       Dd.compact p ~vroots:[] ~mroots:[];
       let xbuf = Test_util.random_state ~seed n in
       let ybuf = Test_util.random_state ~seed:(seed + 1000) n in
       let x = Vec_dd.of_buf p xbuf and y = Vec_dd.of_buf p ybuf in
       check_sum (Printf.sprintf "cycle seed %d" seed) xbuf ybuf (Dd.vadd p x y))
    [ 311; 312; 313; 314 ]

(* -------------------------------------------------------------------- *)
(* Properties                                                             *)
(* -------------------------------------------------------------------- *)

let state_gen =
  (* Random structured-or-dense small state as a seed. *)
  QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10000)

let prop_roundtrip =
  QCheck.Test.make ~name:"of_buf/to_buf roundtrip on random states" ~count:50
    state_gen
    (fun seed ->
       let p = Dd.create () in
       let buf = Test_util.random_state ~seed 5 in
       let e = Vec_dd.of_buf p buf in
       Buf.max_abs_diff buf (Vec_dd.to_buf p 5 e) < 1e-9)

let prop_mv_linear =
  QCheck.Test.make ~name:"mv is linear: M(a+b) = Ma + Mb" ~count:30 state_gen
    (fun seed ->
       let p = Dd.create () in
       let n = 4 in
       let m = Mat_dd.of_single p ~n ~target:(seed mod n) ~controls:[] (Gate.u3 0.3 0.7 0.1) in
       let a = Vec_dd.of_buf p (Test_util.random_state ~seed n) in
       let b = Vec_dd.of_buf p (Test_util.random_state ~seed:(seed + 1) n) in
       let lhs = Dd.mv p m (Dd.vadd p a b) in
       let rhs = Dd.vadd p (Dd.mv p m a) (Dd.mv p m b) in
       let ok = ref true in
       for i = 0 to (1 lsl n) - 1 do
         if not (Cnum.equal ~tol:1e-8 (Dd.vamplitude p lhs i) (Dd.vamplitude p rhs i)) then
           ok := false
       done;
       !ok)

let prop_unitary_mv_preserves_norm =
  QCheck.Test.make ~name:"unitary mv preserves DD norm" ~count:30 state_gen
    (fun seed ->
       let p = Dd.create () in
       let n = 5 in
       let m = Mat_dd.of_single p ~n ~target:(seed mod n) ~controls:[] (Gate.u3 1.1 0.2 2.2) in
       let v = Vec_dd.of_buf p (Test_util.random_state ~seed n) in
       let r = Dd.mv p m v in
       Float.abs (Vec_dd.norm2 p r -. Vec_dd.norm2 p v) < 1e-8)

(* -------------------------------------------------------------------- *)
(* Arena slot conservation under random intern/compact scripts            *)
(* -------------------------------------------------------------------- *)

(* A script is a list of (op, arg) pairs: op < 4 interns a small chain of
   fresh vector nodes plus one matrix node, op = 4 compacts keeping a
   prefix of the root set. After every step: live + free = high-water in
   both arenas; every node of a still-rooted chain keeps the children it
   was created with (a slot handed out twice would have been overwritten);
   and [memory_bytes] has not decreased since the last compaction. *)

type chain = {
  vroot : Dd.vedge;
  mroot : Dd.medge;
  nodes : (Dd.vnode * Dd.vedge * Dd.vedge) list;  (* slot and its children at creation *)
}

let gen_script =
  QCheck.(list_of_size (Gen.int_range 5 40) (pair (int_bound 4) (int_bound 9)))

let check_arena p chains ~mem_floor ~where =
  let conserved what live free hw =
    if live + free <> hw then
      QCheck.Test.fail_reportf "%s: %s live %d + free %d <> high-water %d" where what
        live free hw
  in
  conserved "vector" (Dd.live_vnodes p) (Dd.vfree_slots p)
    (Dd.Testing.varena_high_water p);
  conserved "matrix" (Dd.live_mnodes p) (Dd.mfree_slots p)
    (Dd.Testing.marena_high_water p);
  List.iter
    (fun c ->
       List.iter
         (fun (n, c0, c1) ->
            if Dd.v0 p n <> c0 || Dd.v1 p n <> c1 then
              QCheck.Test.fail_reportf "%s: live slot %d was handed out again" where
                (Dd.vid n))
         c.nodes)
    chains;
  let m = Dd.memory_bytes p in
  if m < mem_floor then
    QCheck.Test.fail_reportf "%s: memory_bytes fell from %d to %d without a compaction"
      where mem_floor m;
  m

let run_script script =
  let p = Dd.create () in
  let chains = ref [] in
  let stamp = ref 0 in
  let mem = ref (Dd.memory_bytes p) in
  let intern_chain arg =
    (* Weights salted by a global stamp, so most batches intern fresh
       structure (and reuse freed slots after a compaction). *)
    incr stamp;
    let x k = Cnum.make (0.001 *. float_of_int ((13 * !stamp) + k + arg)) 0.0 in
    let w k = Dd.vterm_edge p (x k) in
    let e0a = Dd.make_vnode p 0 (w 0) (w 1) in
    let e0b = Dd.make_vnode p 0 (w 2) (w 0) in
    let e2 = Dd.make_vnode p 1 e0a e0b in
    let e3 = Dd.make_vnode p 2 e2 Dd.vzero in
    (* Re-interning the same triple must not allocate again. *)
    let e3' = Dd.make_vnode p 2 e2 Dd.vzero in
    if e3 <> e3' then
      QCheck.Test.fail_reportf "double-allocated (%d, %d)"
        (Dd.vid (Dd.vtgt e3))
        (Dd.vid (Dd.vtgt e3'));
    let m =
      Dd.make_mnode p 0 (Dd.mterm_edge p (x 3)) Dd.mzero Dd.mzero (Dd.mterm_edge p (x 4))
    in
    let node e = (Dd.vtgt e, Dd.v0 p (Dd.vtgt e), Dd.v1 p (Dd.vtgt e)) in
    let c = { vroot = e3; mroot = m; nodes = List.map node [ e0a; e0b; e2; e3 ] } in
    chains := List.filteri (fun i _ -> i < 6) (c :: !chains)
  in
  let compact keep =
    chains := List.filteri (fun i _ -> i < keep) !chains;
    Dd.compact p
      ~vroots:(List.map (fun c -> c.vroot) !chains)
      ~mroots:(List.map (fun c -> c.mroot) !chains)
  in
  List.iter
    (fun (op, arg) ->
       if op < 4 then intern_chain arg
       else begin
         compact (arg mod 4);
         mem := 0
       end;
       let where = Printf.sprintf "op %d/%d" op arg in
       mem := check_arena p !chains ~mem_floor:!mem ~where)
    script;
  (* Leak check: dropping every root and compacting must reclaim both
     arenas entirely. *)
  compact 0;
  if Dd.live_vnodes p <> 0 || Dd.live_mnodes p <> 0 then
    QCheck.Test.fail_reportf "leak: %d vector / %d matrix nodes live with no roots"
      (Dd.live_vnodes p) (Dd.live_mnodes p);
  ignore (check_arena p [] ~mem_floor:0 ~where:"final");
  true

let prop_alloc_compact_conservation =
  QCheck.Test.make ~name:"alloc/compact conserves arena slots" ~count:40 gen_script
    run_script

(* -------------------------------------------------------------------- *)
(* Compute-cache sizing and slot layout                                   *)
(* -------------------------------------------------------------------- *)

let test_cache_lifecycle () =
  (* A fresh package starts at the floor; a deep pure-DD run whose live
     nodes (garbage between compactions included) pass 2^14 grows the
     caches to the cap; a reset takes them back to the floor. *)
  let p = Dd.create () in
  Alcotest.(check int) "fresh package" (1 lsl 10) (Dd.cache_slots p);
  let c = Suite.generate ~seed:1 Suite.Dnn ~n:11 ~gates:130 in
  ignore (Test_util.run_dd ~package:p c);
  Alcotest.(check int) "grown to the cap" (1 lsl 16) (Dd.cache_slots p);
  Dd.reset p;
  Alcotest.(check int) "reset shrinks to the floor" (1 lsl 10) (Dd.cache_slots p)

let test_cache_empty_slot_misses () =
  (* A fresh slab is all zeros: key (0, 0) and epoch stamp 0. The stamp is
     stored as epoch + 1, so an untouched slot is a miss even for the
     all-zero key at epoch 0. *)
  let two = Dd_cache.Two.create ~bits:4 ~label:"mv" in
  let three = Dd_cache.Three.create ~bits:4 ~label:"vadd" in
  Alcotest.(check int) "Two: empty slot misses" (-1) (Dd_cache.Two.find two ~epoch:0 0 0);
  Alcotest.(check int) "Three: empty slot misses" (-1)
    (Dd_cache.Three.find three ~epoch:0 0 0 0);
  Dd_cache.Two.store two ~epoch:0 0 0 7;
  Alcotest.(check int) "Two: stored entry hits" 7 (Dd_cache.Two.find two ~epoch:0 0 0);
  Alcotest.(check int) "Two: next epoch misses" (-1) (Dd_cache.Two.find two ~epoch:1 0 0)

let test_cache_packed_keys_distinct () =
  (* (a, b) and (b, a), and pairs next to the 2^31 - 1 slot-index bound,
     must never be served each other's value: the packed key keeps both
     indices whole. *)
  let top = (1 lsl 31) - 1 in
  let pairs = [ (1, 2); (0, top); (top, top - 1); (top, 0); (top - 1, 1); (12345, top) ] in
  List.iter
    (fun (a, b) ->
       let two = Dd_cache.Two.create ~bits:2 ~label:"mv" in
       let three = Dd_cache.Three.create ~bits:2 ~label:"vadd" in
       Dd_cache.Two.store two ~epoch:0 a b 1;
       Dd_cache.Three.store three ~epoch:0 a b 5 1;
       let what = Printf.sprintf "(%d, %d)" a b in
       Alcotest.(check int) (what ^ " hits") 1 (Dd_cache.Two.find two ~epoch:0 a b);
       Alcotest.(check int) (what ^ " swapped misses") (-1) (Dd_cache.Two.find two ~epoch:0 b a);
       Alcotest.(check int) (what ^ " swapped misses (Three)") (-1)
         (Dd_cache.Three.find three ~epoch:0 b a 5);
       Dd_cache.Two.store two ~epoch:0 b a 2;
       Alcotest.(check int) (what ^ " swapped hits its own value") 2
         (Dd_cache.Two.find two ~epoch:0 b a);
       let r = Dd_cache.Two.find two ~epoch:0 a b in
       Alcotest.(check bool) (what ^ " not aliased by its swap") true (r = 1 || r = -1))
    pairs

let test_cache_hit_allocates_nothing () =
  let c = Dd_cache.Two.create ~bits:4 ~label:"mv" in
  Dd_cache.Two.store c ~epoch:3 17 42 99;
  let w0 = Gc.minor_words () in
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Dd_cache.Two.find c ~epoch:3 17 42
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "all hits" (99 * 10_000) !sum;
  Alcotest.(check (float 0.0)) "minor words for 10 000 hits" 0.0 (w1 -. w0)

(* A fresh package reports within 10 % of what [Dd.create] allocates. The
   runtime folds a domain's allocation counts into [Gc.quick_stat] at a
   minor collection, so each reading forces one. *)
let test_memory_bytes_of_fresh_package () =
  let allocated () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = allocated () in
  let p = Dd.create () in
  let w1 = allocated () in
  let bytes = 8.0 *. (w1 -. w0) and reported = float_of_int (Dd.memory_bytes p) in
  if Float.abs (reported -. bytes) > 0.1 *. bytes then
    Alcotest.failf "memory_bytes %.0f B, Dd.create allocated %.0f B" reported bytes

(* The gate-DD builders as they were before the identity chain was shared:
   [identity_below] rebuilt from level 0 for every level that needed it,
   and every two-qubit entry climbed its own chain. The builders in
   [Mat_dd] must create the same nodes in the same order and intern the
   same weights. *)
module Ref_gate = struct
  let identity_below p l =
    let rec build k below =
      if k = l then below
      else build (k + 1) (Dd.make_mnode p k below Dd.mzero Dd.mzero below)
    in
    build 0 Dd.mone

  let of_single p ~n ~target ~controls (u : Gate.single) =
    let is_control l = List.mem l controls in
    let em = Array.init 2 (fun i ->
        Array.init 2 (fun j ->
            let w = u.(i).(j) in
            if Cnum.is_zero w then Dd.mzero else Dd.mterm_edge p w))
    in
    for l = 0 to target - 1 do
      let ident = identity_below p l in
      for i = 0 to 1 do
        for j = 0 to 1 do
          let low =
            if is_control l then (if i = j then ident else Dd.mzero) else em.(i).(j)
          in
          em.(i).(j) <- Dd.make_mnode p l low Dd.mzero Dd.mzero em.(i).(j)
        done
      done
    done;
    let e = ref (Dd.make_mnode p target em.(0).(0) em.(0).(1) em.(1).(0) em.(1).(1)) in
    for l = target + 1 to n - 1 do
      if is_control l then e := Dd.make_mnode p l (identity_below p l) Dd.mzero Dd.mzero !e
      else e := Dd.make_mnode p l !e Dd.mzero Dd.mzero !e
    done;
    !e

  let of_two p ~n ~q_hi ~q_lo (u : Gate.two) =
    let lo_level = Int.min q_hi q_lo and hi_level = Int.max q_hi q_lo in
    let entry ih il jh jl =
      let w = u.((2 * ih) + il).((2 * jh) + jl) in
      if Cnum.is_zero w then Dd.mzero else Dd.mterm_edge p w
    in
    let rec up top l (e : Dd.medge) =
      if l = top then e
      else if Dd.medge_is_zero e then Dd.mzero
      else up top (l + 1) (Dd.make_mnode p l e Dd.mzero Dd.mzero e)
    in
    let block bi bj =
      let pick ri ci = if hi_level = q_hi then entry bi ri bj ci else entry ri bi ci bj in
      let e00 = pick 0 0 and e01 = pick 0 1 and e10 = pick 1 0 and e11 = pick 1 1 in
      let s e = up lo_level 0 e in
      Dd.make_mnode p lo_level (s e00) (s e01) (s e10) (s e11)
    in
    let b00 = block 0 0 and b01 = block 0 1 and b10 = block 1 0 and b11 = block 1 1 in
    let lift e = up hi_level (lo_level + 1) e in
    let e = ref (Dd.make_mnode p hi_level (lift b00) (lift b01) (lift b10) (lift b11)) in
    for l = hi_level + 1 to n - 1 do
      e := Dd.make_mnode p l !e Dd.mzero Dd.mzero !e
    done;
    !e
end

let random_single rng =
  let a () = Rng.float rng 6.3 in
  match Rng.int rng 8 with
  | 0 -> Gate.x
  | 1 -> Gate.h
  | 2 -> Gate.t
  | 3 -> Gate.y
  | 4 -> Gate.rz (a ())
  | 5 -> Gate.phase (a ())
  | 6 -> Gate.rx (a ())
  | _ -> Gate.u3 (a ()) (a ()) (a ())

let random_two rng =
  let kron (a : Gate.single) (b : Gate.single) : Gate.two =
    Array.init 4 (fun r -> Array.init 4 (fun c -> Cnum.mul a.(r / 2).(c / 2) b.(r mod 2).(c mod 2)))
  in
  match Rng.int rng 5 with
  | 0 -> Gate.swap2
  | 1 -> Gate.cz2
  | 2 -> Gate.fsim (Rng.float rng 3.0) (Rng.float rng 3.0)
  | 3 -> kron (random_single rng) (random_single rng)
  | _ -> Gate.mul4 (Gate.fsim (Rng.float rng 3.0) 0.4) (kron (random_single rng) Gate.h)

(* Random gates at n = 9, each built with both builders, on a fresh pair
   of packages and on a pair that accumulates every gate so far. *)
let test_gate_dd_construction_pinned () =
  let n = 9 in
  let rng = Rng.create 23 in
  let acc_new = Dd.create () and acc_ref = Dd.create () in
  for k = 1 to 400 do
    let build_new, build_ref =
      if Rng.int rng 3 = 0 then begin
        let q_hi = Rng.int rng n in
        let q_lo = (q_hi + 1 + Rng.int rng (n - 1)) mod n in
        let u = random_two rng in
        ( (fun p -> Mat_dd.of_two p ~n ~q_hi ~q_lo u),
          fun p -> Ref_gate.of_two p ~n ~q_hi ~q_lo u )
      end
      else begin
        let target = Rng.int rng n in
        let others = Array.of_list (List.filter (( <> ) target) (List.init n Fun.id)) in
        Rng.shuffle rng others;
        let controls = Array.to_list (Array.sub others 0 (Rng.int rng 4)) in
        let u = random_single rng in
        ( (fun p -> Mat_dd.of_single p ~n ~target ~controls u),
          fun p -> Ref_gate.of_single p ~n ~target ~controls u )
      end
    in
    let same what pn pr =
      let en = (build_new pn :> int) and er = (build_ref pr :> int) in
      let where = Printf.sprintf "gate %d, %s: " k what in
      Alcotest.(check int) (where ^ "edge") er en;
      Alcotest.(check int) (where ^ "matrix high water")
        (Dd.Testing.marena_high_water pr) (Dd.Testing.marena_high_water pn);
      Alcotest.(check int) (where ^ "ctable count")
        (Ctable.count (Dd.ctable pr)) (Ctable.count (Dd.ctable pn))
    in
    same "fresh" (Dd.create ()) (Dd.create ());
    same "accumulated" acc_new acc_ref
  done

let suite =
  [ ( "dd",
      [ Alcotest.test_case "canonicity: equal vectors share nodes" `Quick
          test_canonicity_same_vector_same_node;
        Alcotest.test_case "canonicity: scalar multiples share nodes" `Quick
          test_canonicity_scalar_multiple_shares_node;
        Alcotest.test_case "max-magnitude normalization" `Quick test_normalization_invariant;
        Alcotest.test_case "zero collapse" `Quick test_zero_collapses;
        Alcotest.test_case "near-zero snapping" `Quick test_near_zero_weights_snap;
        Alcotest.test_case "node counts of structured states" `Quick test_node_counts;
        Alcotest.test_case "node counts across stamp wrap" `Quick
          test_node_counts_across_stamp_wrap;
        Alcotest.test_case "random states are dense" `Quick test_random_state_is_dense;
        Alcotest.test_case "of_buf/to_buf roundtrip" `Quick test_roundtrip_random;
        Alcotest.test_case "amplitude walk" `Quick test_amplitude_walk_matches_to_buf;
        Alcotest.test_case "norm2 on DD" `Quick test_vec_norm2;
        Alcotest.test_case "vadd matches dense" `Quick test_vadd_matches_dense;
        Alcotest.test_case "vadd identities" `Quick test_vadd_identities;
        Alcotest.test_case "vadd cache consistency" `Quick test_vadd_cache_consistency;
        Alcotest.test_case "mv matches dense" `Quick test_mv_matches_dense;
        Alcotest.test_case "mm matches dense" `Quick test_mm_matches_dense;
        Alcotest.test_case "mm unitary adjoint" `Quick test_mm_unitary_times_adjoint;
        Alcotest.test_case "ddsim equals statevec" `Quick test_mv_chain_equals_statevec;
        Alcotest.test_case "gate DD entries" `Quick test_gate_dd_entries;
        Alcotest.test_case "gate DD is O(n)" `Quick test_gate_dd_node_count_linear;
        Alcotest.test_case "controls above/below target" `Quick
          test_controlled_gate_dd_vs_statevec;
        Alcotest.test_case "two-qubit gate DDs" `Quick test_two_qubit_gate_dd_vs_statevec;
        Alcotest.test_case "identity DD" `Quick test_identity_dd;
        Alcotest.test_case "compact keeps live data" `Quick test_compact_preserves_live_data;
        Alcotest.test_case "compact then continue" `Quick test_compact_then_continue;
        Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
        Alcotest.test_case "memory accounting of a fresh package" `Quick
          test_memory_bytes_of_fresh_package;
        Alcotest.test_case "gate DD construction pinned" `Quick
          test_gate_dd_construction_pinned;
        Alcotest.test_case "matrix GC roots" `Quick test_mnode_count_gc;
        Alcotest.test_case "per-gate GC differential" `Quick
          test_gc_every_gate_differential;
        Alcotest.test_case "free-list reuse: no stale cache hits" `Quick
          test_freelist_reuse_no_stale_cache;
        QCheck_alcotest.to_alcotest prop_roundtrip;
        QCheck_alcotest.to_alcotest prop_mv_linear;
        QCheck_alcotest.to_alcotest prop_unitary_mv_preserves_norm;
        QCheck_alcotest.to_alcotest prop_alloc_compact_conservation;
        Alcotest.test_case "compute caches: grow with the DD, shrink on reset" `Quick
          test_cache_lifecycle;
        Alcotest.test_case "compute caches: an empty slot never hits" `Quick
          test_cache_empty_slot_misses;
        Alcotest.test_case "compute caches: packed keys do not alias" `Quick
          test_cache_packed_keys_distinct;
        Alcotest.test_case "compute caches: a hit allocates nothing" `Quick
          test_cache_hit_allocates_nothing ] ) ]
