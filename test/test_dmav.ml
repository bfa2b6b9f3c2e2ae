(* Reference: dense matrix-vector product of the op, computed through the
   statevec engine. *)
let reference_apply n op v =
  let st = State.of_buf n (Buf.copy v) in
  Apply.op st op;
  st.State.amps

let test_nocache_matches_reference () =
  let n = 6 in
  let c = Test_util.random_circuit ~seed:1 ~gates:30 n in
  let p = Dd.create () in
  Pool.with_pool 4 (fun pool ->
      let v = ref (Test_util.random_state ~seed:2 n) in
      Array.iter
        (fun op ->
           let m = Mat_dd.of_op p ~n op in
           let w = Buf.create (1 lsl n) in
           Dmav.apply_nocache p ~pool ~n m ~v:!v ~w;
           let expect = reference_apply n op !v in
           Test_util.check_close ~tol:1e-10 "nocache kernel" expect w;
           v := w)
        c.Circuit.ops)

let test_cache_matches_reference () =
  let n = 6 in
  let c = Test_util.random_circuit ~seed:3 ~gates:30 n in
  let p = Dd.create () in
  Pool.with_pool 4 (fun pool ->
      let ws = Dmav.workspace ~n in
      let v = ref (Test_util.random_state ~seed:4 n) in
      Array.iter
        (fun op ->
           let m = Mat_dd.of_op p ~n op in
           let w = Buf.create (1 lsl n) in
           ignore (Dmav.apply_cache ~workspace:ws p ~pool ~n m ~v:!v ~w);
           let expect = reference_apply n op !v in
           Test_util.check_close ~tol:1e-10 "cache kernel" expect w;
           v := w)
        c.Circuit.ops)

let test_kernels_agree_across_threads () =
  let n = 7 in
  let p = Dd.create () in
  let ops =
    [ Mat_dd.of_single p ~n ~target:0 ~controls:[] Gate.h;
      Mat_dd.of_single p ~n ~target:6 ~controls:[ 0 ] (Gate.rz 0.7);
      Mat_dd.of_single p ~n ~target:3 ~controls:[ 1; 5 ] Gate.x;
      Mat_dd.of_two p ~n ~q_hi:5 ~q_lo:2 (Gate.fsim 0.4 0.9) ]
  in
  let v = Test_util.random_state ~seed:5 n in
  List.iter
    (fun m ->
       let reference = Buf.create (1 lsl n) in
       Pool.with_pool 1 (fun pool -> Dmav.apply_nocache p ~pool ~n m ~v ~w:reference);
       List.iter
         (fun threads ->
            Pool.with_pool threads (fun pool ->
                let w1 = Buf.create (1 lsl n) in
                Dmav.apply_nocache p ~pool ~n m ~v ~w:w1;
                Test_util.check_close ~tol:1e-12
                  (Printf.sprintf "nocache %d threads" threads) reference w1;
                let w2 = Buf.create (1 lsl n) in
                ignore (Dmav.apply_cache p ~pool ~n m ~v ~w:w2);
                Test_util.check_close ~tol:1e-12
                  (Printf.sprintf "cache %d threads" threads) reference w2))
         [ 1; 2; 4; 8; 16 ])
    ops

let test_auto_apply_full_circuit () =
  List.iter
    (fun (seed, threads) ->
       let n = 6 in
       let c = Test_util.random_circuit ~seed ~gates:40 n in
       let p = Dd.create () in
       Pool.with_pool threads (fun pool ->
           let ws = Dmav.workspace ~n in
           let v = ref (State.zero_state n).State.amps in
           let w = ref (Buf.create (1 lsl n)) in
           Array.iter
             (fun op ->
                let m = Mat_dd.of_op p ~n op in
                ignore (Dmav.apply ~workspace:ws p ~pool ~n m ~v:!v ~w:!w);
                let tmp = !v in
                v := !w;
                w := tmp)
             c.Circuit.ops;
           let sv = Apply.run c in
           Test_util.check_close ~tol:1e-9
             (Printf.sprintf "auto DMAV (seed %d, %d threads)" seed threads)
             sv.State.amps !v))
    [ (11, 1); (12, 2); (13, 4); (14, 8) ]

let test_cache_hits_on_hadamard () =
  (* H on the top qubit has identical sub-matrices across the four blocks;
     with >= 2 threads the cached kernel must realize hits. *)
  let n = 8 in
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let v = Test_util.random_state ~seed:21 n in
  Pool.with_pool 4 (fun pool ->
      let w = Buf.create (1 lsl n) in
      let hits, buffers = Dmav.apply_cache p ~pool ~n m ~v ~w in
      Alcotest.(check bool) "cache hits happen" true (hits > 0);
      Alcotest.(check bool) "buffers allocated" true (buffers >= 1))

let test_workspace_reuse () =
  (* Repeated cached applications through one workspace must stay exact
     (buffers are reused and must be re-zeroed correctly). *)
  let n = 6 in
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let ws = Dmav.workspace ~n in
  Pool.with_pool 4 (fun pool ->
      let v = ref (Test_util.random_state ~seed:31 n) in
      for _round = 1 to 6 do
        let w = Buf.create (1 lsl n) in
        ignore (Dmav.apply_cache ~workspace:ws p ~pool ~n m ~v:!v ~w);
        let reference = Buf.create (1 lsl n) in
        Dmav.apply_nocache p ~pool ~n m ~v:!v ~w:reference;
        Test_util.check_close ~tol:1e-12 "workspace round" reference w;
        v := w
      done)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* Brute-force MAC count: the number of (row, col) pairs with non-zero
   matrix entry — each contributes exactly one terminal MAC. *)
let brute_force_macs p ~n m =
  let count = ref 0 in
  for r = 0 to (1 lsl n) - 1 do
    for c = 0 to (1 lsl n) - 1 do
      if not (Cnum.is_zero (Dd.mentry p m r c)) then incr count
    done
  done;
  float_of_int !count

let test_mac_count_matches_brute_force () =
  let n = 5 in
  let p = Dd.create () in
  List.iter
    (fun (name, m) ->
       Alcotest.(check (float 0.0)) name (brute_force_macs p ~n m) (Cost.mac_count p m))
    [ ("identity", Mat_dd.identity p n);
      ("h q0", Mat_dd.of_single p ~n ~target:0 ~controls:[] Gate.h);
      ("h q4", Mat_dd.of_single p ~n ~target:4 ~controls:[] Gate.h);
      ("cx", Mat_dd.of_single p ~n ~target:2 ~controls:[ 0 ] Gate.x);
      ("ccx", Mat_dd.of_single p ~n ~target:1 ~controls:[ 2; 4 ] Gate.x);
      ("fsim", Mat_dd.of_two p ~n ~q_hi:3 ~q_lo:1 (Gate.fsim 0.5 0.2)) ]

let test_mac_count_known_values () =
  let n = 6 in
  let p = Dd.create () in
  (* Identity: 2^n non-zero entries. H on one qubit: 2^{n+1}. *)
  Alcotest.(check (float 0.0)) "identity" (float_of_int (1 lsl n))
    (Cost.mac_count p (Mat_dd.identity p n));
  Alcotest.(check (float 0.0)) "hadamard" (float_of_int (1 lsl (n + 1)))
    (Cost.mac_count p (Mat_dd.of_single p ~n ~target:3 ~controls:[] Gate.h));
  let p2 = Dd.create () in
  Alcotest.(check (float 0.0)) "zero edge" 0.0 (Cost.mac_count p2 Dd.mzero)

(* Brute-force priced count: every root-to-terminal path enumerated with
   no memo. A path into the terminal costs [terminal]; a path reaching
   the node [Mat_dd.identity] builds over the node's level stops there,
   and the identity node at level l costs [identity × 2^(l+1)]. [seen]
   records the levels at which an identity was met. *)
let brute_force_priced ?(seen = [||]) p ~terminal ~identity m =
  let ident_node l = Dd.mtgt (Mat_dd.identity p (l + 1)) in
  let rec go e =
    if Dd.medge_is_zero e then 0.0
    else begin
      let node = Dd.mtgt e in
      if node = Dd.mterminal then terminal
      else begin
        let l = Dd.mlevel p node in
        if node = ident_node l then begin
          if l < Array.length seen then seen.(l) <- true;
          identity *. Float.pow 2.0 (float_of_int (l + 1))
        end
        else
          go (Dd.mchild p node 0 0) +. go (Dd.mchild p node 0 1)
          +. go (Dd.mchild p node 1 0) +. go (Dd.mchild p node 1 1)
      end
    end
  in
  go m

(* Random 1q, 2q and controlled gates at n = 8 and DDMM products of
   them: a 1q gate on every qubit puts an identity at every level below
   it; a control above its target has an identity in its 0-branch; the
   whole-register identity and a phase times it are identity roots. *)
let priced_cases p ~n =
  let rng = Rng.create 17 in
  let u3 () = Gate.u3 (Rng.angle rng) (Rng.angle rng) (Rng.angle rng) in
  let singles =
    List.init n (fun q -> (Printf.sprintf "u3 q%d" q, Mat_dd.of_single p ~n ~target:q ~controls:[] (u3 ())))
  in
  let controlled =
    List.init 6 (fun i ->
        let c = Rng.int rng n in
        let t = (c + 1 + Rng.int rng (n - 1)) mod n in
        let controls = if i mod 3 = 2 then [ c; (t + 1 + Rng.int rng (n - 1)) mod n ] else [ c ] in
        let controls = List.sort_uniq compare (List.filter (fun q -> q <> t) controls) in
        (Printf.sprintf "c%s-u3 q%d" (String.concat "," (List.map string_of_int controls)) t,
         Mat_dd.of_single p ~n ~target:t ~controls (u3 ())))
  in
  let twos =
    List.init 5 (fun _ ->
        let hi = 1 + Rng.int rng (n - 1) in
        let lo = Rng.int rng hi in
        (Printf.sprintf "fsim q%d q%d" hi lo,
         Mat_dd.of_two p ~n ~q_hi:hi ~q_lo:lo (Gate.fsim (Rng.angle rng) (Rng.angle rng))))
  in
  let gates =
    singles
    @ (("c6-u3 q2", Mat_dd.of_single p ~n ~target:2 ~controls:[ 6 ] (u3 ())) :: controlled)
    @ twos
  in
  let pick () = List.nth gates (Rng.int rng (List.length gates)) in
  let products =
    List.init 12 (fun i ->
        let k = 2 + (i mod 3) in
        let parts = List.init k (fun _ -> pick ()) in
        (String.concat " * " (List.map fst parts),
         List.fold_left (fun acc (_, m) -> Dd.mm p m acc) (snd (List.hd parts)) (List.tl parts)))
  in
  let ident = Mat_dd.identity p n in
  [ ("identity", ident); ("phase * identity", Dd.mscale p ident (Cnum.make 0.0 1.0)) ]
  @ gates @ products

let test_priced_count_matches_brute_force () =
  let n = 8 in
  let p = Dd.create () in
  let seen = Array.make n false in
  let cases = priced_cases p ~n in
  List.iter (fun (_, m) -> ignore (brute_force_priced ~seen p ~terminal:1.0 ~identity:1.0 m)) cases;
  Alcotest.(check bool) "an identity at every level" true (Array.for_all Fun.id seen);
  (* c6-u3 q2: below the top level, the control's node; its 0-branch is
     the identity over levels 5..0. *)
  let cu = List.assoc "c6-u3 q2" cases in
  let control_node = Dd.mtgt (Dd.mchild p (Dd.mtgt cu) 0 0) in
  Alcotest.(check bool) "an identity in a control's 0-branch" true
    (Dd.mtgt (Dd.mchild p control_node 0 0) = Dd.mtgt (Mat_dd.identity p 6));
  let check name ~terminal ~identity expect got =
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s (terminal %g, identity %g)" name terminal identity) expect got
  in
  List.iter
    (fun (name, m) ->
       List.iter
         (fun (terminal, identity) ->
            check name ~terminal ~identity
              (brute_force_priced p ~terminal ~identity m)
              (Dd.priced_paths p ~terminal ~identity m))
         [ (1.0, 1.0); (1.0, 0.25); (0.0, 1.0); (1.0, 0.1) ];
       check name ~terminal:1.0 ~identity:Cost.identity_price
         (brute_force_priced p ~terminal:1.0 ~identity:Cost.identity_price m)
         (Cost.priced_macs p m))
    cases

let test_pow2_threads () =
  Alcotest.(check int) "4 stays" 4 (Cost.pow2_threads ~n:10 4);
  Alcotest.(check int) "6 rounds down" 4 (Cost.pow2_threads ~n:10 6);
  Alcotest.(check int) "1 minimum" 1 (Cost.pow2_threads ~n:10 1);
  Alcotest.(check int) "clamped by qubits" 4 (Cost.pow2_threads ~n:2 64)

let test_buffer_allocation () =
  (* Threads with disjoint block sets share; overlapping ones do not. *)
  let assignment, count =
    Cost.allocate_buffers [| [ 0; 8 ]; [ 16; 24 ]; [ 0; 16 ]; [ 8; 24 ] |]
  in
  Alcotest.(check int) "threads 0,1 share" assignment.(0) assignment.(1);
  Alcotest.(check bool) "thread 2 separate" true (assignment.(2) <> assignment.(0));
  Alcotest.(check int) "two buffers suffice" 2 count;
  let _, count_all_overlap = Cost.allocate_buffers [| [ 0 ]; [ 0 ]; [ 0 ] |] in
  Alcotest.(check int) "full overlap: one buffer each" 3 count_all_overlap;
  let _, count_disjoint = Cost.allocate_buffers [| [ 0 ]; [ 8 ]; [ 16 ] |] in
  Alcotest.(check int) "fully disjoint: one shared buffer" 1 count_disjoint

let test_breakdown_consistency () =
  let n = 8 in
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let b = Cost.breakdown p ~n ~threads:4 m in
  Alcotest.(check bool) "k2 <= k1" true (b.Cost.k2 <= b.Cost.k1);
  Alcotest.(check bool) "hits positive for H top" true (b.Cost.hits > 0);
  Alcotest.(check bool) "buffers >= 1" true (b.Cost.buffers >= 1);
  (* Realized cache hits must equal the modeled H. *)
  let v = Test_util.random_state ~seed:41 n in
  Pool.with_pool 4 (fun pool ->
      let w = Buf.create (1 lsl n) in
      let hits, buffers = Dmav.apply_cache p ~pool ~n m ~v ~w in
      Alcotest.(check int) "modeled H = realized hits" b.Cost.hits hits;
      Alcotest.(check int) "modeled b = realized buffers" b.Cost.buffers buffers)

let test_decision_prefers_cache_when_repetitive () =
  (* A top-qubit Hadamard at large n has massive block repetition: with
     several threads the cached kernel must be modeled cheaper. *)
  let n = 12 in
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let d = Cost.decide p ~n ~threads:4 m in
  Alcotest.(check bool) "cached cheaper for repetitive gate" true d.Cost.cached;
  (* A bottom-qubit controlled gate has little repetition at the border
     level: uncached should win (or at least cached must not be absurd). *)
  Alcotest.(check bool) "costs positive" true (d.Cost.c1 > 0.0 && d.Cost.c2 > 0.0);
  Alcotest.(check bool) "modeled macs positive" true (Cost.modeled_macs d > 0.0)

let test_decision_single_thread () =
  (* With one thread there are no per-thread repeats possible beyond the
     column revisits; the decision must still be well-formed. *)
  let n = 8 in
  let p = Dd.create () in
  let m = Mat_dd.of_single p ~n ~target:0 ~controls:[] (Gate.rz 0.3) in
  let d = Cost.decide p ~n ~threads:1 m in
  Alcotest.(check int) "one thread used" 1 d.Cost.threads_used;
  Alcotest.(check bool) "c1 = K1" true (Float.abs (d.Cost.c1 -. Cost.mac_count p m) < 1e-9)

let suite =
  [ ( "dmav",
      [ Alcotest.test_case "nocache matches reference" `Quick test_nocache_matches_reference;
        Alcotest.test_case "cache matches reference" `Quick test_cache_matches_reference;
        Alcotest.test_case "kernels agree across threads" `Quick
          test_kernels_agree_across_threads;
        Alcotest.test_case "auto apply over full circuit" `Quick test_auto_apply_full_circuit;
        Alcotest.test_case "cache hits on Hadamard" `Quick test_cache_hits_on_hadamard;
        Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
        Alcotest.test_case "mac count = brute force" `Quick test_mac_count_matches_brute_force;
        Alcotest.test_case "mac count known values" `Quick test_mac_count_known_values;
        Alcotest.test_case "priced count = brute force" `Quick
          test_priced_count_matches_brute_force;
        Alcotest.test_case "pow2 thread rounding" `Quick test_pow2_threads;
        Alcotest.test_case "buffer allocation" `Quick test_buffer_allocation;
        Alcotest.test_case "breakdown consistency" `Quick test_breakdown_consistency;
        Alcotest.test_case "decision prefers cache when repetitive" `Quick
          test_decision_prefers_cache_when_repetitive;
        Alcotest.test_case "decision single thread" `Quick test_decision_single_thread ] ) ]
