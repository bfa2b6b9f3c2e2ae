(** The DMAV computational cost model (paper §3.2.3).

    The unit of cost is the multiply-accumulate (MAC): one terminal visit
    of the [Run] recursion. The MAC count of a matrix DD is computed by a
    memoized depth-first walk — identical nodes contribute identical
    counts, the terminal contributes one (Figure 8).

    For an [n]-qubit DMAV on [t] threads with SIMD width [d]:
    - without caching (Eq. 5):  [C₁ = K₁ / t];
    - with caching (Eq. 6):     [C₂ = K₂/t + 2ⁿ/(d·t) · (H/t + b)],

    where [K₁] is the full MAC count, [H] the number of border-level tasks
    whose sub-matrix node repeats within a thread (cache hits), [K₂] the
    MACs of the remaining (non-repeated) tasks, and [b] the number of
    partial-output buffers. *)

val pow2_threads : n:int -> int -> int
(** Largest power of two ≤ both the requested thread count and 2ⁿ — the
    thread count the Assign recursions actually split over. *)

val allocate_buffers : int list array -> int array * int
(** Greedy partial-output buffer allocation over per-thread output-block
    sets: each thread joins the first buffer whose occupied set is
    disjoint from its own, else opens a new one. Returns the thread →
    buffer assignment and the buffer count [b]. *)

type task = { node : Dd.mnode; start : int; weight : Cnum.t }
(** A border-level multiplication task: the sub-matrix node with the full
    weight product (path weights and the border edge's own weight folded
    together, which is what the caching factor needs), plus the
    sub-vector start index — I_V for the row-space kernel, I_P for the
    column-space one. *)

type traversal =
  | Row_major     (** Algorithm 1's Assign: threads own row blocks *)
  | Column_major  (** Algorithm 2's AssignCache: threads own column blocks *)

val assign : Dd.package -> n:int -> t:int -> traversal -> Dd.medge -> task list array
(** The task assignment over the top log₂ t levels: for each of the [t]
    threads, its border-level tasks in assignment order. Both DMAV
    kernels, the cost model and the load-balance analyses in the
    benchmark harness use it. *)

val mac_count : Dd.package -> Dd.medge -> float
(** [K₁] — total MACs of multiplying this matrix DD by a dense vector.
    Float because counts reach 2ⁿ·(dense paths) and must not overflow
    silently. *)

type breakdown = {
  k1 : float;
  k2 : float;
  hits : int;        (** [H] *)
  buffers : int;     (** [b] *)
}

val breakdown : Dd.package -> n:int -> threads:int -> Dd.medge -> breakdown
(** Simulates the cached task assignment (Algorithm 2's AssignCache and
    buffer allocation) without touching any state vector. [threads] is
    rounded down to a power of two, as in {!Dmav}. *)

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }

val simd_width : int
(** The model's [d], fixed at 4: about one AVX2 register of doubles. *)

val decide : Dd.package -> n:int -> threads:int -> Dd.medge -> decision
(** Chooses the cheaper kernel: cached iff [C₂ < C₁]. *)

val modeled_macs : decision -> float
(** [min C₁ C₂ × t] — the modeled MAC work of the chosen kernel, the
    quantity Table 2 reports as "Cost". *)

val identity_macs : Dd.package -> n:int -> decision -> Dd.medge -> float
(** The MACs of the chosen kernel's Run calls that lie under identity
    nodes, which the Run stub applies as contiguous stripes. The model
    still charges them at the full recursion rate. *)

(** {1 Per-gate kernel dispatch (DMAV vs dense direct apply)} *)

val dense_direct_macs : n:int -> Circuit.op -> float
(** Modeled MACs of applying [op] with the dense direct kernels
    ([Apply.single] / [Apply.two]): [2ⁿ⁺¹] for a single-qubit gate,
    [2ⁿ⁺²] for a two-qubit one, regardless of gate sparsity. The
    single-qubit kernel touches only the [2ⁿ⁻¹⁻ᶜ] pairs of a
    [c]-controlled gate; the model does not credit that. *)

type kernel = Dmav_kernel | Dense_kernel

type dispatch = {
  kernel : kernel;    (** the cheaper kernel under the model *)
  dmav : decision;    (** the DMAV-side decision, reusable by the kernel *)
  dense_c : float option;
  (** modeled per-thread cost of dense direct application; [None] when the
      gate is fused (no original circuit op) and thus DMAV-only *)
}

val dispatch : Dd.package -> n:int -> threads:int -> ?op:Circuit.op -> Dd.medge -> dispatch
(** Extends {!decide} with the dense direct-apply alternative: dense
    kernels are array loops (the single-qubit one 4-wide on AVX2 hosts,
    2-wide elsewhere, over the controlled pairs only) charged at SIMD
    width [d]
    (like the model's block operations), DD-traversal MACs at scalar
    rate. Dense is only eligible when [op] is given — a fused matrix has
    no dense kernel. *)

val dispatch_modeled_macs : dispatch -> float
(** Modeled MAC work of the dispatched kernel ([t × C] of whichever side
    won), the dispatch-aware analogue of {!modeled_macs}. *)
