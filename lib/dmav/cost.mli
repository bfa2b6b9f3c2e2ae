(** The DMAV computational cost model (paper §3.2.3).

    The unit of cost is the multiply-accumulate (MAC): one terminal visit
    of the [Run] recursion. The MAC count of a matrix DD is computed by a
    memoized depth-first walk — identical nodes contribute identical
    counts, the terminal contributes one (Figure 8). The same walk with
    identity nodes priced at {!identity_price} per MAC and the
    recursion's calls at {!visit_price} each, {!priced_macs}, is the
    unit of the gate price that picks every flat gate's kernel
    ({!dispatch}, {!local_dispatch}) and that fusion compares.

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
(** [K₁] — total MACs of multiplying this matrix DD by a dense vector:
    {!Dd.priced_paths} with every path priced 1. Float because counts
    reach 2ⁿ·(dense paths) and must not overflow silently. *)

val identity_price : float
(** The cost of one MAC under a canonical identity node, relative to a
    recursion MAC: 0.25. The Run stub applies an identity node at level
    [l] as one contiguous stripe of [2^(l+1)] MACs, which ran three to
    four times faster per MAC than the recursion on the host it was
    fitted on ([bench/main.exe fusion_price]) while the Run's calls
    went unpriced; most of that gap is the calls a stripe skips, which
    {!visit_price} now charges. A constant, the unit the other prices
    were fitted in, and exact in binary. *)

val visit_price : float
(** The cost of one call of the Run's recursion on an internal node
    (level 1 and up, not a canonical identity), relative to a recursion
    MAC: 2. A root-to-node path costs one, batched under a replication
    node or not. Fitted with [bench/main.exe fusion_price] with
    {!identity_price} held; a constant, exact in binary. *)

val priced_macs : ?identity_price:float -> Dd.package -> Dd.medge -> float
(** The Run's priced MACs (beyond the paper's Eq. 5): each
    root-to-terminal path costs 1, except that the walk stops at a
    canonical identity node at level [l] and charges
    [identity_price × 2^(l+1)] for it, and each root-to-node path into
    any other node at level 1 or above costs {!visit_price}.
    [identity_price] defaults to {!identity_price}; other values are for
    calibration sweeps. The unit of every kernel's price ({!dispatch}),
    and fusion's price of a wide gate. *)

type breakdown = {
  k1 : float;
  k2 : float;
  k1_priced : float;  (** [K₁] in {!priced_macs} *)
  k2_priced : float;
  (** [K₂] in {!priced_macs}, plus the repeated tasks' visits: a hit
      saves its MACs, not the Run's calls, so the visit price never
      moves a pick between the Run and Algorithm 2 *)
  hits : int;        (** [H] *)
  buffers : int;     (** [b] *)
}

val breakdown : Dd.package -> n:int -> threads:int -> Dd.medge -> breakdown
(** Simulates the cached task assignment (Algorithm 2's AssignCache and
    buffer allocation) without touching any state vector. [threads] is
    rounded down to a power of two, as in {!Dmav}. *)

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }
(** The two DMAV kernels in the paper's terms: [c1] and [c2] are Eq. 5
    and Eq. 6 over plain MAC counts, per thread, and [cached] says
    whether Algorithm 2 runs. *)

val simd_width : int
(** The model's [d], fixed at 4: about one AVX2 register of doubles. *)

val modeled_macs : decision -> float
(** [C × t] of the kernel that runs ([c2] if cached, else [c1]) — the
    modeled MAC work Table 2 reports as "Cost". *)

val identity_macs : Dd.package -> n:int -> decision -> Dd.medge -> float
(** The MACs of the chosen kernel's Run calls that lie under identity
    nodes, which the Run stub applies as contiguous stripes:
    {!Dd.priced_paths} with terminal paths priced 0. *)

(** {1 The gate price: local leg, Run, Algorithm 2, dense}

    One unit for every flat-phase kernel: the Run's priced MAC
    ({!priced_macs}: a recursion MAC 1, an identity-stripe MAC
    {!identity_price}, a recursion call {!visit_price}), per thread.
    The Run costs its priced MACs (Eq. 5), Algorithm 2 its distinct
    tasks' priced MACs and its repeated tasks' visits plus Eq. 6's block
    operations at SIMD width [d], and the two array kernels, the local
    leg and the dense single-qubit kernel, a fitted rate per amplitude
    they stream. Only a narrow gate, one given by its local form
    ([Flat_gate.local_of_op], [Flat_gate.local_product]), has a local
    leg ({!local_dispatch}); a wide gate, given by its matrix DD, is
    priced on the other three ({!dispatch}). *)

val local_rate : support:int -> float
(** The local leg's price per amplitude on a gate of this support mask
    (one or two levels), fitted with [bench/main.exe fusion_price]. Below
    {!identity_price}, so a narrow gate never costs more there than on
    the Run (every row has a path of at least that price) or on
    Algorithm 2 (at least one buffer's block operations). *)

val dense_direct_macs : n:int -> Circuit.op -> float
(** MACs of the dense direct kernels ([Dense_kernel.single] and
    [Dense_kernel.two]): 4 per amplitude pair walked, which is [2ⁿ⁻¹⁻ᶜ]
    pairs for a [c]-controlled single-qubit gate, so [2ⁿ⁺¹⁻ᶜ]; 16 per
    quad of a two-qubit gate, so [2ⁿ⁺²]. *)

val dense_rate : float
(** The dense single-qubit kernel's price per amplitude walked, fitted
    with [bench/main.exe fusion_price]: the local leg's support-1 rate,
    as the two share the walk. *)

val dense_price : n:int -> Circuit.op -> float option
(** The dense kernel's price on one thread: {!dense_rate} per amplitude
    walked, [2ⁿ⁻ᶜ] for a [c]-controlled single-qubit gate. [None] for a
    two-qubit op, whose dense kernel is the local leg's walk: its
    {!local_rate} prices it. *)

val local_price : ?local_rate:float -> n:int -> support:int -> float -> float
(** [local_price ~n ~support run] is the price [Fusion.dmav_aware]
    compares for an [n]-qubit narrow gate on [support] whose Run costs
    [run] priced MACs: the gate on one thread, the cheaper of the two,
    the local leg at {!local_rate} (or [local_rate], one rate for both
    supports, for calibration sweeps) per amplitude. Algorithm 2 never
    wins on one thread and a product has no dense kernel. A wide gate's
    price is its {!priced_macs}. *)

type kernel =
  | Local   (** the local leg: a narrow gate's 2×2 or 4×4 matrix in place *)
  | Run     (** Algorithm 1, uncached *)
  | Cached  (** Algorithm 2, column-space caching *)
  | Dense   (** the dense direct kernel on an unfused op *)

type prices = {
  local : float option;  (** [None] for a wide gate *)
  run : float;
  cached : float;
  dense : float option;
  (** [None] unless an unfused single-qubit op is given *)
}
(** Each kernel's price per thread, for a pool of [threads]. *)

type dispatch = {
  kernel : kernel;    (** the cheapest kernel *)
  dmav : decision;
  (** the two DMAV kernels' Eq. 5/6 counts; [dmav.cached] is
      [kernel = Cached] *)
  prices : prices;
  price : float;      (** the picked kernel's price *)
  support : int option;
  (** a narrow gate's levels, as a bit mask; [None] for a wide gate *)
}

val dispatch : Dd.package -> n:int -> threads:int -> ?op:Circuit.op -> Dd.medge -> dispatch
(** Prices a wide gate, given by its matrix DD, on every eligible kernel
    for a pool of [threads] and picks the cheapest; on a tie the earlier
    of dense, Run, cached. The dense kernel is eligible when [op], the
    unfused circuit op, is a single-qubit gate; the local leg never is.
    With no [op] the pick is one of the paper's two DMAV kernels. *)

val local_dispatch : n:int -> threads:int -> ?op:Circuit.op -> macs:float -> int -> dispatch
(** The pick for a gate given by its local form on [support], not its DD
    ([Flat_gate.of_local]), of plain MAC count [macs]: the local leg, or
    the dense kernel of [op], the unfused op, when it is priced no
    higher. The Run and Algorithm 2 never win against the local leg
    ({!local_rate}) and are not priced ([prices.run] and [prices.cached]
    are infinite, [dmav.c2] is [dmav.c1]). *)

val dispatch_modeled_macs : dispatch -> float
(** Modeled work of the dispatched kernel: {!modeled_macs} of its
    decision for the DMAV kernels and the local leg (counted as the
    uncached kernel it stands in for), [t × price] for dense. *)
