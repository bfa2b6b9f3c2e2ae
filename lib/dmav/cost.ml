(* Every count of this model is one walk, [Dd.priced_paths], which
   returns a gate's three path counts; every price is arithmetic on
   them. The plain MAC count is its terminal paths and its identity
   stripes' MACs; the priced count charges a stripe MAC
   [identity_price] and a Run call [visit_price]. *)
let macs (c : Dd.paths) = c.terminal +. c.stripe

let mac_count p e = macs (Dd.priced_paths p e)

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

let priced ?(identity_price = identity_price) (c : Dd.paths) =
  c.terminal +. (identity_price *. c.stripe) +. (visit_price *. c.visits)

let pow2_threads ~n threads =
  let t = ref 1 in
  while !t * 2 <= threads && Bits.log2_exact (!t * 2) <= n do
    t := !t * 2
  done;
  !t

type task = { node : Dd.mnode; start : int; weight : Cnum.t }

(* Algorithm 2's AssignCache: walk the top log₂ t levels, handing each
   border-level sub-matrix to a thread. The thread index follows the
   column bit j and the partial-output offset the row bit i; the outer
   loop runs over j. *)
let assign p ~n ~t (root : Dd.medge) =
  let border = n - Bits.log2_exact t - 1 in
  let tasks = Array.make t [] in
  let rec go (e : Dd.medge) (f : Cnum.t) u start l =
    if not (Dd.medge_is_zero e) then begin
      let f = Cnum.mul f (Dd.mw p e) in
      if l = border then tasks.(u) <- { node = Dd.mtgt e; start; weight = f } :: tasks.(u)
      else begin
        let step = t / (1 lsl (n - l)) in
        let half = 1 lsl l in
        for j = 0 to 1 do
          for i = 0 to 1 do
            go (Dd.medge_child p e i j) f (u + (j * step)) (start + (i * half)) (l - 1)
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

type breakdown = {
  tasks : task list array;
  k1 : float;
  k2 : float;
  k1_priced : float;
  k2_priced : float;
  k1_stripe : float;
  k2_stripe : float;
  hits : int;
  buffers : int;
  thread_buffer : int array;
}

(* One pass over Algorithm 2's tasks, one count walk per distinct task
   node: the border tasks' paths partition the root's, so K₁ is every
   task's count and K₂ each thread's distinct tasks' count, plain,
   priced and under identity stripes. A hit saves its MACs but not its
   visits: priced K₂ charges every task's visits, so the visit price
   never moves a pick between the Run and Algorithm 2. (Discounted
   visits moved four k-operations products of supremacy-15, 2 hits
   each, to Algorithm 2, where they ran 4-10x slower on the 2-core Xeon
   of [fusion_price].) The counts are sums of integers and halves,
   exact in any order. *)
let breakdown p ~n ~threads root =
  let t = pow2_threads ~n threads in
  let tasks = assign p ~n ~t root in
  let counts : (int, Dd.paths) Hashtbl.t = Hashtbl.create 16 in
  let count node =
    match Hashtbl.find_opt counts (Dd.mid node) with
    | Some c -> c
    | None ->
      let c = Dd.priced_paths p (Dd.munit node) in
      Hashtbl.replace counts (Dd.mid node) c;
      c
  in
  let k1 = ref 0.0 and k1_priced = ref 0.0 and k1_stripe = ref 0.0 in
  let k2 = ref 0.0 and k2_priced = ref 0.0 and k2_stripe = ref 0.0 in
  let hits = ref 0 in
  Array.iter
    (fun lst ->
       let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun { node; _ } ->
            let c = count node in
            let plain = macs c and price = priced c in
            if Hashtbl.mem seen (Dd.mid node) then begin
              incr hits;
              k2_priced := !k2_priced +. (visit_price *. c.visits)
            end
            else begin
              Hashtbl.replace seen (Dd.mid node) ();
              k2 := !k2 +. plain;
              k2_priced := !k2_priced +. price;
              k2_stripe := !k2_stripe +. c.stripe
            end;
            k1 := !k1 +. plain;
            k1_priced := !k1_priced +. price;
            k1_stripe := !k1_stripe +. c.stripe)
         lst)
    tasks;
  let thread_buffer, buffers =
    allocate_buffers (Array.map (List.map (fun task -> task.start)) tasks)
  in
  { tasks; k1 = !k1; k2 = !k2; k1_priced = !k1_priced; k2_priced = !k2_priced;
    k1_stripe = !k1_stripe; k2_stripe = !k2_stripe; hits = !hits; buffers; thread_buffer }

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }

let simd_width = 4

let modeled_macs d = float_of_int d.threads_used *. if d.cached then d.c2 else d.c1

(* The local leg streams the whole vector once, in place, whatever the
   gate's entries, so it is priced per amplitude, in the Run's priced
   MACs. Over hybrid-deep's unfused and fused gates (bench/main.exe
   fusion_price, 2-core Xeon, n = 15-16) an amplitude cost 0.09-0.14
   priced MACs on support 1 and 0.14-0.18 on support 2, at one and two
   threads. Both constants are exact in binary and below
   [identity_price]. *)
let local_rates = [| 0.125; 0.1875 |]

let local_rate ~support = local_rates.(Bits.popcount support - 1)

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
   block operations). *)
let local_price ?local_rate:rate ~n ~support run =
  let rate = match rate with Some r -> r | None -> local_rate ~support in
  Float.min run (rate *. Float.ldexp 1.0 n)

type kernel = Dmav_local | Dmav_uncached | Dmav_cached | Dense_direct

type dispatch = {
  kernel : kernel;
  dmav : decision;
  price : float;
  support : int option;
}

(* The paper's one choice, priced per thread in the Run's priced MACs (a
   recursion MAC 1, an identity-stripe MAC [identity_price], a recursion
   call [visit_price]): the Run at Eq. 5 over priced MACs against
   Algorithm 2 at Eq. 6 over priced MACs plus its block operations at
   SIMD width d; a tie goes to the Run. [decision] keeps Eq. 5/6's plain
   MAC counts, which the reports and Table 2 show. *)
let dispatch ~n b =
  let tu = Array.length b.tasks in
  let t = float_of_int tu in
  let dim = Float.ldexp 1.0 n in
  let blocks =
    dim /. (float_of_int simd_width *. t) *. ((float_of_int b.hits /. t) +. float_of_int b.buffers)
  in
  let run = b.k1_priced /. t and cached = (b.k2_priced /. t) +. blocks in
  let cached_wins = cached < run in
  { kernel = (if cached_wins then Dmav_cached else Dmav_uncached);
    dmav = { cached = cached_wins; c1 = b.k1 /. t; c2 = (b.k2 /. t) +. blocks; threads_used = tu };
    price = (if cached_wins then cached else run);
    support = None }

(* The local leg, taken by rule, not priced against the others: it
   costs less per amplitude than any Run row ([identity_price]) or
   Eq. 6's block operations (2ⁿ/(d·t) at least). It walks the 2ⁿ⁻ᶜ
   amplitudes whose c control bits are all 1. Its [decision] holds its
   modeled MACs as one uncached kernel. *)
let local_dispatch ~n ~threads ~macs ~controls support =
  let tu = pow2_threads ~n threads in
  let t = float_of_int tu in
  { kernel = Dmav_local;
    dmav = { cached = false; c1 = macs /. t; c2 = macs /. t; threads_used = tu };
    price = local_rate ~support *. Float.ldexp 1.0 (n - Bits.popcount controls) /. t;
    support = Some (support lor controls) }
