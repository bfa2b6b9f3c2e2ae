(* Every count of this model is one walk, [Dd.priced_paths], with
   different prices: the plain MAC count charges a terminal path 1 and
   an identity node its 2^(l+1) paths, the priced count charges the
   identity node's paths [identity_price] each and every Run call
   [visit_price], and the identity share charges only the identity
   nodes' paths. *)
let mac_count p e = Dd.priced_paths p ~terminal:1.0 ~identity:1.0 ~visit:0.0 e

(* The Run stub applies an identity node as one contiguous stripe. Over
   the uncached applications of hybrid-deep's unfused and fused gates
   (bench/main.exe fusion_price, 2-core Xeon) a stripe MAC cost 0.25-0.35
   of a recursion MAC when the fit had no visit term. With one, the free
   fit reads 0.65-0.98: most of a stripe's discount is the recursion
   calls it skips, which [visit_price] now charges. The price stays a
   quarter, the unit of [Flat_gate.piece_macs] and of every fit of
   [visit_price] and the array kernels' rates; it is exact in binary, so
   priced counts stay exact sums. *)
let identity_price = 0.25

(* A Run call on an internal node (level 1 and up, not an identity): the
   recursion's own work, one per root-to-node path, which the leaf MACs
   do not price. A call under a replication node, which the stub makes
   in a batch, costs the same: fitted apart, the batched visits took the
   whole visit rate and the rest explained nothing. Over hybrid-deep's
   unfused and fused gates (bench/main.exe fusion_price, 2-core Xeon),
   with [identity_price] held, a visit cost 2.1-2.5 recursion MACs on the
   stream this price fuses (3.2-3.5 on the stream fused without it,
   which holds the slow wide products it now rejects). Two is exact in
   binary: priced counts stay sums of halves. *)
let visit_price = 2.0

let priced_macs ?(identity_price = identity_price) p e =
  Dd.priced_paths p ~terminal:1.0 ~identity:identity_price ~visit:visit_price e

type breakdown = {
  k1 : float;
  k2 : float;
  k1_priced : float;
  k2_priced : float;
  hits : int;
  buffers : int;
}

let pow2_threads ~n threads =
  let t = ref 1 in
  while !t * 2 <= threads && Bits.log2_exact (!t * 2) <= n do
    t := !t * 2
  done;
  !t

type task = { node : Dd.mnode; start : int; weight : Cnum.t }

type traversal = Row_major | Column_major

(* Algorithms 1 and 2's Assign/AssignCache: walk the top log₂ t levels,
   handing each border-level sub-matrix to a thread. Row-major (Assign):
   the thread index follows the row bit i and the V offset the column
   bit j. Column-major (AssignCache): the thread index follows j and the
   partial-output offset follows i. The outer loop runs over the bit the
   thread index follows. *)
let assign p ~n ~t traversal (root : Dd.medge) =
  let border = n - Bits.log2_exact t - 1 in
  let tasks = Array.make t [] in
  let rec go (e : Dd.medge) (f : Cnum.t) u start l =
    if not (Dd.medge_is_zero e) then begin
      let f = Cnum.mul f (Dd.mw p e) in
      if l = border then tasks.(u) <- { node = Dd.mtgt e; start; weight = f } :: tasks.(u)
      else begin
        let step = t / (1 lsl (n - l)) in
        let half = 1 lsl l in
        for a = 0 to 1 do
          for b = 0 to 1 do
            let e' =
              match traversal with
              | Row_major -> Dd.medge_child p e a b
              | Column_major -> Dd.medge_child p e b a
            in
            go e' f (u + (a * step)) (start + (b * half)) (l - 1)
          done
        done
      end
    end
  in
  go root Cnum.one 0 0 (n - 1);
  Array.map List.rev tasks

let allocate_buffers per_thread_blocks =
  (* Greedy: each thread joins the first buffer whose occupied block set is
     disjoint from its own, else opens a new buffer. (The paper tests one
     candidate thread j; testing the buffer's full occupied set is the
     correct generalization when 3+ threads fold into one buffer.) *)
  let buffers : (int, unit) Hashtbl.t list ref = ref [] in
  let assignment =
    Array.map
      (fun blocks ->
         let disjoint occupied = List.for_all (fun b -> not (Hashtbl.mem occupied b)) blocks in
         let rec find i = function
           | [] -> None
           | occ :: rest -> if disjoint occ then Some (i, occ) else find (i + 1) rest
         in
         match find 0 !buffers with
         | Some (i, occ) ->
           (* [occ] is one of this function's own tables, reached through
              the match binding — planning is single-threaded. *)
           (* qcs-lint: allow unguarded-shared-state *)
           List.iter (fun b -> Hashtbl.replace occ b ()) blocks;
           i
         | None ->
           let occ = Hashtbl.create 16 in
           List.iter (fun b -> Hashtbl.replace occ b ()) blocks;
           buffers := !buffers @ [ occ ];
           List.length !buffers - 1)
      per_thread_blocks
  in
  (assignment, List.length !buffers)

(* The cached kernel runs each thread's distinct task nodes once: Σ [f]
   over them, and the number of repeats (cache hits). *)
let sum_distinct_tasks tasks f =
  let sum = ref 0.0 and hits = ref 0 in
  Array.iter
    (fun lst ->
       let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun { node; _ } ->
            if Hashtbl.mem seen (Dd.mid node) then incr hits
            else begin
              Hashtbl.replace seen (Dd.mid node) ();
              sum := !sum +. f node
            end)
         lst)
    tasks;
  (!sum, !hits)

(* One pass over the tasks: the border tasks' paths partition the
   root's, so K₁ is every task's count and K₂ each thread's distinct
   tasks' count, plain and priced. A hit saves its MACs but not its
   visits: priced K₂ charges every task's visits, so the visit price
   never moves a pick between the Run and Algorithm 2. (Discounted
   visits moved four k-operations products of supremacy-15, 2 hits
   each, to Algorithm 2, where they ran 4-10x slower on the 2-core Xeon
   of [fusion_price].) The counts are sums of integers and halves,
   exact in any order. *)
let breakdown p ~n ~threads root =
  let t = pow2_threads ~n threads in
  let tasks = assign p ~n ~t Column_major root in
  let k1 = ref 0.0 and k1_priced = ref 0.0 and k2 = ref 0.0 and k2_priced = ref 0.0 in
  let hits = ref 0 in
  Array.iter
    (fun lst ->
       let seen : (int, float * float * float) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun { node; _ } ->
            let plain, priced =
              match Hashtbl.find_opt seen (Dd.mid node) with
              | Some (plain, priced, visits) ->
                incr hits;
                k2_priced := !k2_priced +. visits;
                (plain, priced)
              | None ->
                let e = Dd.munit node in
                let plain = mac_count p e and priced = priced_macs p e in
                let visits = Dd.priced_paths p ~terminal:0.0 ~identity:0.0 ~visit:visit_price e in
                Hashtbl.replace seen (Dd.mid node) (plain, priced, visits);
                k2 := !k2 +. plain;
                k2_priced := !k2_priced +. priced;
                (plain, priced)
            in
            k1 := !k1 +. plain;
            k1_priced := !k1_priced +. priced)
         lst)
    tasks;
  let per_thread_blocks = Array.map (List.map (fun task -> task.start)) tasks in
  let _, buffers = allocate_buffers per_thread_blocks in
  { k1 = !k1; k2 = !k2; k1_priced = !k1_priced; k2_priced = !k2_priced; hits = !hits; buffers }

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }

let simd_width = 4

let modeled_macs d = float_of_int d.threads_used *. if d.cached then d.c2 else d.c1

(* The part of [modeled_macs] (its MAC terms, not the block operations)
   under identity nodes, which the Run stub applies as contiguous
   stripes. *)
let identity_macs p ~n d root =
  let count e = Dd.priced_paths p ~terminal:0.0 ~identity:1.0 ~visit:0.0 e in
  if not d.cached then count root
  else
    fst
      (sum_distinct_tasks (assign p ~n ~t:d.threads_used Column_major root) (fun node ->
           count (Dd.munit node)))

(* The local leg streams the whole vector once, in place, whatever the
   gate's entries, so it is priced per amplitude, in the Run's priced
   MACs. Over hybrid-deep's unfused and fused gates (bench/main.exe
   fusion_price, 2-core Xeon, n = 15-16) an amplitude cost 0.09-0.14
   priced MACs on support 1 and 0.14-0.18 on support 2, at one and two
   threads. Both constants are exact in binary and below
   [identity_price]. *)
let local_rates = [| 0.125; 0.1875 |]

let local_rate ~support = local_rates.(Bits.popcount support - 1)

(* The dense single-qubit kernel walks the 2ⁿ⁻ᶜ amplitudes a c-controlled
   gate touches. It shares the local leg's walk (0.09-0.14 priced MACs per
   amplitude walked, fusion_price, as above), so it takes the support-1
   rate and wins the tie. A two-qubit op's dense kernel is the local leg. *)
let dense_rate = 0.125

let dense_price ~n (op : Circuit.op) =
  match op with
  | Circuit.Single { controls; _ } ->
    Some (dense_rate *. Float.ldexp 1.0 (n - List.length controls))
  | Circuit.Two _ -> None

(* The dense kernels do 4 complex MACs per amplitude pair they walk
   (2ⁿ⁻¹⁻ᶜ pairs of a c-controlled single-qubit gate) and 16 per
   quad of a two-qubit gate. *)
let dense_direct_macs ~n (op : Circuit.op) =
  match op with
  | Circuit.Single { controls; _ } -> Float.ldexp 2.0 (n - List.length controls)
  | Circuit.Two _ -> Float.ldexp 4.0 n

(* The price fusion compares for a narrow gate: the gate on one thread,
   the cheaper of its local leg and the Run. Algorithm 2 never pays on
   one thread (its one task has no repeat, and Eq. 6 adds a buffer's
   block operations), and a product has no dense kernel. *)
let local_price ?local_rate:rate ~n ~support run =
  let rate = match rate with Some r -> r | None -> local_rate ~support in
  Float.min run (rate *. Float.ldexp 1.0 n)

type kernel = Local | Run | Cached | Dense

type prices = {
  local : float option;
  run : float;
  cached : float;
  dense : float option;
}

type dispatch = {
  kernel : kernel;
  dmav : decision;
  prices : prices;
  price : float;
  support : int option;
}

(* The cheapest kernel and its price; a tie goes to the earlier of
   dense, local, Run, cached. *)
let pick prices =
  List.fold_left
    (fun (k, c) (k', c') -> match c' with Some c' when c' < c -> (k', c') | _ -> (k, c))
    (Run, infinity)
    [ (Dense, prices.dense); (Local, prices.local); (Run, Some prices.run);
      (Cached, Some prices.cached) ]

(* One price per kernel of a wide gate, per thread, in the Run's priced
   MACs (a recursion MAC 1, an identity-stripe MAC [identity_price], a
   recursion call [visit_price]): the Run is Eq. 5 over priced MACs,
   Algorithm 2 Eq. 6 over priced MACs plus its block operations at SIMD
   width d, the dense kernel its per-amplitude rate; [pick] takes the
   cheapest. [decision] keeps Eq. 5/6's plain MAC counts, which the
   reports and Table 2 show. *)
let dispatch p ~n ~threads ?op root =
  let tu = pow2_threads ~n threads in
  let t = float_of_int tu in
  let b = breakdown p ~n ~threads root in
  let dim = Float.ldexp 1.0 n in
  let blocks =
    dim /. (float_of_int simd_width *. t) *. ((float_of_int b.hits /. t) +. float_of_int b.buffers)
  in
  let prices =
    { local = None;
      run = b.k1_priced /. t;
      cached = (b.k2_priced /. t) +. blocks;
      dense = Option.bind op (fun op -> Option.map (fun p -> p /. t) (dense_price ~n op)) }
  in
  let kernel, price = pick prices in
  let dmav =
    { cached = kernel = Cached;
      c1 = b.k1 /. t;
      c2 = (b.k2 /. t) +. blocks;
      threads_used = tu }
  in
  { kernel; dmav; prices; price; support = None }

(* A gate priced from its local form ([Flat_gate.of_local]): the Run
   (at least [identity_price] per amplitude) and Algorithm 2 (at least a
   buffer's block operations) cannot beat the local leg, so they are not
   priced. *)
let local_dispatch ~n ~threads ?op ~macs support =
  let tu = pow2_threads ~n threads in
  let t = float_of_int tu in
  let prices =
    { local = Some (local_rate ~support *. Float.ldexp 1.0 n /. t); run = infinity;
      cached = infinity;
      dense = Option.bind op (fun op -> Option.map (fun p -> p /. t) (dense_price ~n op)) }
  in
  let kernel, price = pick prices in
  { kernel;
    dmav = { cached = false; c1 = macs /. t; c2 = macs /. t; threads_used = tu };
    prices;
    price;
    support = Some support }

let dispatch_modeled_macs disp =
  match disp.kernel with
  | Dense -> float_of_int disp.dmav.threads_used *. disp.price
  | Local | Run | Cached -> modeled_macs disp.dmav
