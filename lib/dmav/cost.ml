(* Every count of this model is one walk, [Dd.priced_paths], with a
   different leaf price: the plain MAC count charges a terminal path 1
   and an identity node its 2^(l+1) paths, the priced count charges the
   identity node's paths [identity_price] each, and the identity share
   charges the terminal 0. *)
let mac_count p e = Dd.priced_paths p ~terminal:1.0 ~identity:1.0 e

(* The Run stub applies an identity node as one contiguous stripe. Over
   the uncached applications of hybrid-deep's unfused and fused gates
   (bench/main.exe fusion_price, 2-core Xeon) a stripe MAC cost 0.25-0.35
   of a recursion MAC, and every price from 0.05 to 0.30 gives those jobs
   the same fused streams. A quarter is exact in binary, so priced counts
   stay exact sums. *)
let identity_price = 0.25

let priced_macs ?(identity_price = identity_price) p e =
  Dd.priced_paths p ~terminal:1.0 ~identity:identity_price e

type breakdown = {
  k1 : float;
  k2 : float;
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

let breakdown p ~n ~threads root =
  let t = pow2_threads ~n threads in
  let tasks = assign p ~n ~t Column_major root in
  let k2, hits = sum_distinct_tasks tasks (fun node -> mac_count p (Dd.munit node)) in
  let per_thread_blocks = Array.map (List.map (fun task -> task.start)) tasks in
  let _, buffers = allocate_buffers per_thread_blocks in
  { k1 = mac_count p root; k2; hits; buffers }

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }

let simd_width = 4

let decide p ~n ~threads root =
  let tu = pow2_threads ~n threads in
  let t = float_of_int tu in
  let d = float_of_int simd_width in
  let b = breakdown p ~n ~threads root in
  let dim = Float.pow 2.0 (float_of_int n) in
  let c1 = b.k1 /. t in
  let c2 = (b.k2 /. t) +. (dim /. (d *. t) *. ((float_of_int b.hits /. t) +. float_of_int b.buffers)) in
  { cached = c2 < c1; c1; c2; threads_used = tu }

let modeled_macs d = float_of_int d.threads_used *. Float.min d.c1 d.c2

(* The part of [modeled_macs] (its MAC terms, not the block operations)
   under identity nodes, which the Run stub applies as contiguous
   stripes. [decide] still charges them at the recursion rate. *)
let identity_macs p ~n d root =
  let count e = Dd.priced_paths p ~terminal:0.0 ~identity:1.0 e in
  if not d.cached then count root
  else
    fst
      (sum_distinct_tasks (assign p ~n ~t:d.threads_used Column_major root) (fun node ->
           count (Dd.munit node)))

(* Dense direct application is charged as touching every amplitude with a
   fixed-size matrix: 2ⁿ⁻¹ pairs × 4 complex MACs for a single-qubit gate,
   2ⁿ⁻² quads × 16 for a two-qubit one — so 2ⁿ⁺¹ and 2ⁿ⁺² MACs regardless
   of the gate's sparsity or controls. *)
let dense_direct_macs ~n (op : Circuit.op) =
  let dim = Float.pow 2.0 (float_of_int n) in
  match op with
  | Circuit.Single _ -> 2.0 *. dim
  | Circuit.Two _ -> 4.0 *. dim

type kernel = Dmav_kernel | Dense_kernel

type dispatch = {
  kernel : kernel;
  dmav : decision;
  dense_c : float option;  (** per-thread dense cost; [None] when ineligible *)
}

(* The dense kernels are array loops, the single-qubit one 4-wide on
   AVX2 hosts (two amplitudes per vector, matching [d]) and 2-wide
   elsewhere, charged like the model's block operations at SIMD width
   [d] either way, so dense direct costs [2ⁿ⁺¹/(d·t)] or [2ⁿ⁺²/(d·t)]. A
   c-controlled gate touches only 2ⁿ⁻¹⁻ᶜ pairs but is still charged
   2ⁿ⁺¹ MACs, which keeps every dispatch decision where it was. The Run
   recursion's MACs are pointer-chasing DD traversals and stay at scalar
   rate, exactly as in C₁/C₂. An op is only eligible when the original
   circuit operation survived to the flat phase, i.e. the gate was not
   fused. *)
let dispatch p ~n ~threads ?op root =
  let dmav = decide p ~n ~threads root in
  match op with
  | None -> { kernel = Dmav_kernel; dmav; dense_c = None }
  | Some op ->
    let t = float_of_int dmav.threads_used in
    let d = float_of_int simd_width in
    let dense_c = dense_direct_macs ~n op /. (d *. t) in
    let kernel =
      if dense_c < Float.min dmav.c1 dmav.c2 then Dense_kernel else Dmav_kernel
    in
    { kernel; dmav; dense_c = Some dense_c }

let dispatch_modeled_macs disp =
  match disp with
  | { kernel = Dense_kernel; dense_c = Some c; dmav } ->
    float_of_int dmav.threads_used *. c
  | { dmav; _ } -> modeled_macs dmav
