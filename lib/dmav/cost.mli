(** The DMAV computational cost model (paper §3.2.3).

    The unit of cost is the multiply-accumulate (MAC): one terminal visit
    of the [Run] recursion. Every price is arithmetic on a gate's three
    path counts ({!Dd.paths}), which one memoized depth-first walk
    returns ({!Dd.priced_paths}; identical nodes contribute identical
    counts, Figure 8): the MAC count is its terminal paths plus its
    identity stripes' MACs ({!macs}), and the priced count charges a
    stripe MAC {!identity_price} and each of the recursion's calls
    {!visit_price} ({!priced}), the unit of the gate price that picks a
    wide gate's kernel ({!dispatch}) and that fusion compares.

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

val assign : Dd.package -> n:int -> t:int -> Dd.medge -> task list array
(** Algorithm 2's AssignCache over the top log₂ t levels: for each of
    the [t] threads, which own column blocks, its border-level tasks in
    assignment order, the task's start the row block. Algorithm 1's
    row-major lists are their transpose ({!Flat_gate.program}). *)

val macs : Dd.paths -> float
(** The plain MAC count of a gate's counts: [terminal +. stripe]. *)

val mac_count : Dd.package -> Dd.medge -> float
(** [K₁] — total MACs of multiplying this matrix DD by a dense vector:
    {!macs} of its {!Dd.priced_paths}. *)

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

val priced : ?identity_price:float -> Dd.paths -> float
(** The Run's priced MACs (beyond the paper's Eq. 5): [terminal +.
    identity_price ×. stripe +. visit_price ×. visits], so each
    root-to-terminal path costs 1, an identity stripe's MAC
    [identity_price] and each root-to-node path into any other node at
    level 1 or above {!visit_price}. [identity_price] defaults to
    {!identity_price}; other values are for calibration sweeps. The unit
    of every kernel's price ({!dispatch}), and fusion's price of a wide
    gate. *)

type breakdown = {
  tasks : task list array;
  (** Algorithm 2's assignment ({!assign}), which the compiled program
      runs *)
  k1 : float;
  k2 : float;
  k1_priced : float;  (** [K₁] in {!priced} MACs *)
  k2_priced : float;
  (** [K₂] in {!priced} MACs, plus the repeated tasks' visits: a hit
      saves its MACs, not the Run's calls, so the visit price never
      moves a pick between the Run and Algorithm 2 *)
  k1_stripe : float;  (** the MACs of [K₁] under identity stripes *)
  k2_stripe : float;  (** the MACs of [K₂] under identity stripes *)
  hits : int;        (** [H] *)
  buffers : int;     (** [b] *)
  thread_buffer : int array;  (** {!allocate_buffers}' thread → buffer *)
}

val breakdown : Dd.package -> n:int -> threads:int -> Dd.medge -> breakdown
(** Simulates the cached task assignment (Algorithm 2's AssignCache and
    buffer allocation) without touching any state vector, with one
    count walk per distinct task node. [threads] is rounded down to a
    power of two ({!pow2_threads}), as in {!Dmav}. *)

type decision = { cached : bool; c1 : float; c2 : float; threads_used : int }
(** The two DMAV kernels in the paper's terms: [c1] and [c2] are Eq. 5
    and Eq. 6 over plain MAC counts, per thread, and [cached] says
    whether Algorithm 2 runs. *)

val simd_width : int
(** The model's [d], fixed at 4: about one AVX2 register of doubles. *)

val modeled_macs : decision -> float
(** [C × t] of the kernel that runs ([c2] if cached, else [c1]) — the
    modeled MAC work Table 2 reports as "Cost", and what the driver sums
    over a flat phase. *)

(** {1 The gate price: the Run against Algorithm 2}

    One unit for every flat-phase kernel: the Run's priced MAC
    ({!priced}: a recursion MAC 1, an identity-stripe MAC
    {!identity_price}, a recursion call {!visit_price}), per thread.
    The one priced choice is the paper's: a wide gate, given by its
    matrix DD, runs on the Run at its priced MACs (Eq. 5) or on
    Algorithm 2 at its distinct tasks' priced MACs and its repeated
    tasks' visits plus Eq. 6's block operations at SIMD width [d]
    ({!dispatch}). The array kernel beyond the paper is taken by rule:
    a gate given by its form ([Flat_gate.local_of_op], every unfused op,
    or [Flat_gate.local_product], a fused product on at most two levels)
    runs on the local leg ({!local_dispatch}). Its rate per amplitude,
    {!local_rate}, is the price the trace shows; it sits below the least
    a Run row ({!identity_price}) or Algorithm 2's block term
    ([2ⁿ/(d·t)]) can cost, so pricing it against the DMAV kernels would
    never pick otherwise. *)

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
    quad of a two-qubit gate, so [2ⁿ⁺²]. The modeled MACs of every
    gate of the dense engines. *)

val local_price : ?local_rate:float -> n:int -> support:int -> float -> float
(** [local_price ~n ~support run] is the price [Fusion.dmav_aware]
    compares for an [n]-qubit narrow gate on [support] whose Run costs
    [run] priced MACs: the gate on one thread, the cheaper of the two,
    the local leg at {!local_rate} (or [local_rate], one rate for both
    supports, for calibration sweeps) per amplitude. Algorithm 2 never
    wins on one thread. A wide gate's price is its {!priced} count. *)

(** What a flat gate runs: the kernel the trace and the driver's counts
    name ([Engine.dispatch] is this type). *)
type kernel =
  | Dmav_local     (** the local leg: a form's 2×2 or 4×4 matrix in place *)
  | Dmav_uncached  (** Algorithm 1, the Run *)
  | Dmav_cached    (** Algorithm 2, column-space caching *)
  | Dense_direct   (** the dense engines' kernel ([-e array]); no flat gate's *)

type dispatch = {
  kernel : kernel;
  dmav : decision;
  (** a wide gate's Eq. 5/6 counts ([dmav.cached] is [kernel =
      Dmav_cached]); a gate taken by rule has [c1 = c2], its modeled
      MACs per thread *)
  price : float;      (** the kernel's price per thread *)
  support : int option;
  (** the levels of the gate's form, its support and its controls, as a
      bit mask; [None] for a gate without one *)
}

val dispatch : n:int -> breakdown -> dispatch
(** Prices a wide gate from its {!breakdown} for the pool it will run on
    on the Run and on Algorithm 2, and picks the cheaper; a tie goes to
    the Run. *)

val local_dispatch : n:int -> threads:int -> macs:float -> controls:int -> int -> dispatch
(** A gate given by its form on [support] under the control mask
    [controls], not its DD ([Flat_gate.of_local]), of plain MAC count
    [macs]: the local leg, at {!local_rate} per amplitude it walks,
    [2ⁿ⁻ᶜ] for [c] controls; its modeled MACs are [macs], counted as the
    uncached kernel it stands in for. *)
