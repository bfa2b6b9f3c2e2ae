(* Reference: dense matrix-vector product of the op, computed through the
   statevec engine. *)
let reference_apply n op v =
  let st = State.of_buf n (Buf.copy v) in
  Apply.op st op;
  st.State.amps

(* Algorithm 2, unconditionally: the cached program of [m] run on
   [pool]; its hits and buffers, read off the program. *)
let apply_cache ?workspace p ~pool ~n m ~v ~w =
  let g = Flat_gate.program p ~n ~cached:true (Cost.breakdown p ~n ~threads:(Pool.size pool) m) in
  Dmav.run ?workspace ~pool g ~v ~w;
  (g.Flat_gate.hits, g.Flat_gate.buffers)

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
           ignore (apply_cache ~workspace:ws p ~pool ~n m ~v:!v ~w);
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
                ignore (apply_cache p ~pool ~n m ~v ~w:w2);
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
      let hits, buffers = apply_cache p ~pool ~n m ~v ~w in
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
        ignore (apply_cache ~workspace:ws p ~pool ~n m ~v:!v ~w);
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

(* Brute-force path counts: every root-to-terminal path enumerated with
   no memo. A path into the terminal counts one terminal path; a path
   reaching the node [Mat_dd.identity] builds over the node's level
   stops there, and the identity node at level l counts 2^(l+1) stripe
   MACs; a path into any other node at level 1 or above counts one
   visit. [seen] records the levels at which an identity was met. *)
let brute_force_paths ?(seen = [||]) p m =
  let ident_node l = Dd.mtgt (Mat_dd.identity p (l + 1)) in
  let terminal = ref 0 and stripe = ref 0 and visits = ref 0 in
  let rec go e =
    if not (Dd.medge_is_zero e) then begin
      let node = Dd.mtgt e in
      if node = Dd.mterminal then incr terminal
      else begin
        let l = Dd.mlevel p node in
        if node = ident_node l then begin
          if l < Array.length seen then seen.(l) <- true;
          stripe := !stripe + (1 lsl (l + 1))
        end
        else begin
          if l > 0 then incr visits;
          go (Dd.mchild p node 0 0);
          go (Dd.mchild p node 0 1);
          go (Dd.mchild p node 1 0);
          go (Dd.mchild p node 1 1)
        end
      end
    end
  in
  go m;
  { Dd.terminal = float_of_int !terminal; stripe = float_of_int !stripe;
    visits = float_of_int !visits }

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
  List.iter (fun (_, m) -> ignore (brute_force_paths ~seen p m)) cases;
  Alcotest.(check bool) "an identity at every level" true (Array.for_all Fun.id seen);
  (* c6-u3 q2: below the top level, the control's node; its 0-branch is
     the identity over levels 5..0. *)
  let cu = List.assoc "c6-u3 q2" cases in
  let control_node = Dd.mtgt (Dd.mchild p (Dd.mtgt cu) 0 0) in
  Alcotest.(check bool) "an identity in a control's 0-branch" true
    (Dd.mtgt (Dd.mchild p control_node 0 0) = Dd.mtgt (Mat_dd.identity p 6));
  let check name what expect got =
    Alcotest.(check (float 0.0)) (Printf.sprintf "%s: %s" name what) expect got
  in
  List.iter
    (fun (name, m) ->
       let want = brute_force_paths p m and got = Dd.priced_paths p m in
       check name "terminal paths" want.Dd.terminal got.Dd.terminal;
       check name "stripe MACs" want.Dd.stripe got.Dd.stripe;
       check name "visits" want.Dd.visits got.Dd.visits;
       check name "plain MACs" (want.Dd.terminal +. want.Dd.stripe) (Cost.macs got);
       check name "priced"
         (want.Dd.terminal +. (Cost.identity_price *. want.Dd.stripe)
          +. (Cost.visit_price *. want.Dd.visits))
         (Cost.priced got))
    cases;
  Alcotest.(check bool) "zero edge" true (Dd.priced_paths p Dd.mzero = brute_force_paths p Dd.mzero)

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
      let hits, buffers = apply_cache p ~pool ~n m ~v ~w in
      Alcotest.(check int) "modeled H = realized hits" b.Cost.hits hits;
      Alcotest.(check int) "modeled b = realized buffers" b.Cost.buffers buffers)

let test_decision_prefers_cache_when_repetitive () =
  (* A top-qubit Hadamard times a gate on qubit 0 at large n has massive
     block repetition and no identity stripe: with several threads the
     cached kernel must be modeled cheaper. *)
  let n = 12 in
  let p = Dd.create () in
  let h = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let m = Dd.mm p h (Mat_dd.of_single p ~n ~target:0 ~controls:[] (Gate.u3 0.3 0.5 0.7)) in
  let d = (Cost.dispatch ~n (Cost.breakdown p ~n ~threads:4 m)).Cost.dmav in
  Alcotest.(check bool) "cached cheaper for repetitive gate" true d.Cost.cached;
  (* The Hadamard alone repeats as much, but its MACs are identity
     stripes: Eq. 6 over plain MACs still models the cached kernel
     cheaper, while the Run's priced MACs win the pick. *)
  let dh = (Cost.dispatch ~n (Cost.breakdown p ~n ~threads:4 h)).Cost.dmav in
  Alcotest.(check bool) "plain Eq. 6 below Eq. 5" true (dh.Cost.c2 < dh.Cost.c1);
  Alcotest.(check bool) "stripes priced: the Run wins" false dh.Cost.cached;
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
  let d = (Cost.dispatch ~n (Cost.breakdown p ~n ~threads:1 m)).Cost.dmav in
  Alcotest.(check int) "one thread used" 1 d.Cost.threads_used;
  Alcotest.(check bool) "c1 = K1" true (Float.abs (d.Cost.c1 -. Cost.mac_count p m) < 1e-9)

(* A diagonal gate makes 2ⁿ plain MACs on any qubit, but its Run does
   not cost the same: on qubit n − 1 it is one node over two identity
   stripes, on qubit 0 a chain of replication nodes whose 2ⁿ⁻¹ − 1
   root-to-node paths above level 0 each take one Run call. The visit
   price charges those calls, in the DD walk and in the block walks of
   a narrow form and of a wide narrow product ([Flat_gate.local_product]),
   which must agree with it exactly. *)
let test_diagonal_prices_in_visit_order () =
  let check what = Alcotest.(check (float 0.0)) what in
  for n = 4 to 9 do
    let p = Dd.create () in
    let what s = Printf.sprintf "n = %d: %s" n s in
    let pow k = Float.ldexp 1.0 k in
    let single q = Circuit.Single { name = "t"; matrix = Gate.t; target = q; controls = [] } in
    let cz hi lo = Circuit.Two { name = "cz"; matrix = Gate.cz2; q_hi = hi; q_lo = lo } in
    let form op = Flat_gate.local_of_op ~n op in
    let visits m = (Dd.priced_paths p m).Dd.visits in
    let priced m = Cost.priced (Dd.priced_paths p m) in
    let bottom = Mat_dd.of_op p ~n (single 0) and top = Mat_dd.of_op p ~n (single (n - 1)) in
    check (what "plain MACs") (Cost.mac_count p top) (Cost.mac_count p bottom);
    check (what "bottom visits") (pow (n - 1) -. 1.0) (visits bottom);
    check (what "top visits") 1.0 (visits top);
    check (what "bottom price")
      (pow n +. (Cost.visit_price *. (pow (n - 1) -. 1.0)))
      (priced bottom);
    check (what "top price") ((Cost.identity_price *. pow n) +. Cost.visit_price)
      (priced top);
    List.iter
      (fun (q, m) ->
         check (what (Printf.sprintf "form price, qubit %d" q)) (priced m)
           (Cost.priced (Flat_gate.local_paths ~n (form (single q)))))
      [ (0, bottom); (n - 1, top) ];
    (* Two CZs on three levels: a wide diagonal product. *)
    let product a b =
      let m = Dd.mm p (Mat_dd.of_op p ~n a) (Mat_dd.of_op p ~n b) in
      match Flat_gate.local_product ~n (form a) (form b) with
      | Flat_gate.Wide_product c ->
        let run = Cost.priced c in
        check (what "product price = its DD's") (priced m) run;
        (m, run)
      | Flat_gate.Narrow_product _ -> Alcotest.failf "%s" (what "CZ product narrow")
    in
    let m_lo, lo = product (cz 1 0) (cz 2 1) in
    let m_hi, hi = product (cz (n - 1) (n - 2)) (cz (n - 2) (n - 3)) in
    check (what "bottom product visits") (pow (n - 1) -. 1.0) (visits m_lo);
    Alcotest.(check bool) (what "top product visits fewer") true (visits m_hi < visits m_lo);
    Alcotest.(check bool) (what "bottom product priced higher") true (hi < lo)
  done

(* Algorithm 2's priced K₂ keeps its repeated tasks' visits: a hit saves
   MACs, not the Run's calls. So K₁' − K₂' is the repeated tasks' priced
   MACs without visits, and the visit price never moves a pick between
   the Run and Algorithm 2. Checked against the tasks of Algorithm 2's
   assignment, on the priced cases and on a top Hadamard times a bottom
   gate (a gate with many hits), at 2 and 4 threads. *)
let test_cached_price_keeps_visits () =
  let n = 8 in
  let p = Dd.create () in
  let h = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let repetitive = Dd.mm p h (Mat_dd.of_single p ~n ~target:0 ~controls:[] (Gate.u3 0.3 0.5 0.7)) in
  Alcotest.(check bool) "hits" true ((Cost.breakdown p ~n ~threads:4 repetitive).Cost.hits > 0);
  List.iter
    (fun (name, m) ->
       List.iter
         (fun threads ->
            let b = Cost.breakdown p ~n ~threads m in
            let saved = ref 0.0 in
            Array.iter
              (fun lst ->
                 let seen = Hashtbl.create 16 in
                 List.iter
                   (fun (task : Cost.task) ->
                      if Hashtbl.mem seen (Dd.mid task.Cost.node) then
                        saved :=
                          !saved
                          +. (let c = Dd.priced_paths p (Dd.munit task.Cost.node) in
                              c.Dd.terminal +. (Cost.identity_price *. c.Dd.stripe))
                      else Hashtbl.replace seen (Dd.mid task.Cost.node) ())
                   lst)
              b.Cost.tasks;
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s, %d threads: K1' - K2'" name threads)
              !saved (b.Cost.k1_priced -. b.Cost.k2_priced))
         [ 2; 4 ])
    (("H top * u3 bottom", repetitive) :: priced_cases p ~n)

(* Algorithm 1's program runs the transpose of Algorithm 2's task lists
   ([Cost.assign]): it must hold the row-major Assign's tasks
   ([Kernel_ref.assign_rows]) list by list, in their order, each at its
   V offset and output stripe, with the same gate-local node and
   bit-equal weights. Every task is one Run call here ([piece_macs]
   infinite), on random gate DDs and their k = 2 and 4 products at 1 to
   16 threads. *)
let prop_uncached_program_is_row_major =
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let matches p ~n ~t m =
    let prog =
      Flat_gate.program ~piece_macs:infinity p ~n ~cached:false (Cost.breakdown p ~n ~threads:t m)
    in
    let rows = Kernel_ref.assign_rows p ~n ~t m in
    let { Dd.arena; local } =
      Dd.export p (List.concat_map (List.map (fun (r : Cost.task) -> r.node)) (Array.to_list rows))
    in
    let h = (1 lsl n) / t and k = ref 0 in
    prog.Flat_gate.threads = t
    && prog.Flat_gate.arena = arena
    && Array.for_all Fun.id
         (Array.mapi
            (fun u lst ->
               prog.Flat_gate.lists.(u + 1) - prog.Flat_gate.lists.(u) = List.length lst
               && List.for_all
                    (fun (r : Cost.task) ->
                       let tk = prog.Flat_gate.tasks and pc = prog.Flat_gate.pieces in
                       let i = tk.((3 * !k) + 2) in
                       let ok =
                         tk.(3 * !k) = r.start
                         && tk.((3 * !k) + 1) = -1
                         && tk.((3 * !k) + 5) = i + 1
                         && pc.(3 * i) = local r.node
                         && pc.((3 * i) + 1) = r.start
                         && pc.((3 * i) + 2) = u * h
                         && same_bits prog.Flat_gate.weights.(2 * i) r.weight.Cnum.re
                         && same_bits prog.Flat_gate.weights.((2 * i) + 1) r.weight.Cnum.im
                       in
                       incr k;
                       ok)
                    lst)
            rows)
  in
  QCheck.Test.make ~name:"uncached program = row-major Assign" ~count:30
    QCheck.(pair (int_range 5 8) small_nat)
    (fun (n, seed) ->
       let n = Int.max 5 (Int.min 8 n) in
       let p = Dd.create () in
       let gates =
         Array.to_list
           (Array.map (Mat_dd.of_op p ~n) (Test_util.random_circuit ~seed ~gates:12 n).Circuit.ops)
       in
       let rec products k = function
         | [] -> []
         | g :: rest ->
           let group = List.filteri (fun i _ -> i < k - 1) rest in
           List.fold_left (fun acc m -> Dd.mm p m acc) g group
           :: products k (List.filteri (fun i _ -> i >= k - 1) rest)
       in
       List.for_all
         (fun m -> List.for_all (fun t -> matches p ~n ~t m) [ 1; 2; 4; 8; 16 ])
         (gates @ products 2 gates @ products 4 gates))

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
        Alcotest.test_case "decision single thread" `Quick test_decision_single_thread;
        Alcotest.test_case "diagonal gates price in visit order" `Quick
          test_diagonal_prices_in_visit_order;
        Alcotest.test_case "cached price keeps the hits' visits" `Quick
          test_cached_price_keeps_visits;
        QCheck_alcotest.to_alcotest prop_uncached_program_is_row_major ] ) ]
