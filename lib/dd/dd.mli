(** Quantum decision diagrams (QMDD-style) on flat arena storage.

    Vectors and matrices are represented as weighted DAGs: a node at level
    [l] (the qubit index) has two (vector) or four (matrix) outgoing edges
    to level [l - 1]; the shared terminal node sits below level 0. A value
    — amplitude or matrix entry — is the product of edge weights along the
    corresponding path. Nodes are canonical: on construction, outgoing
    weights are normalized by the largest-magnitude weight, snapped to the
    package's complex table, and deduplicated through a unique table, so
    structurally equal sub-vectors/-matrices are physically shared and
    comparable by index.

    Nodes live in index-based arenas ({!Node_store}): a {!vnode}/{!mnode}
    is a slot index, and an edge is a single packed int carrying the target
    index and the ctable id of its weight. Reading a node's fields
    therefore needs the owning {!package}. Slot 0 is the terminal and
    weight id 0 is the zero weight, so the zero edge of either kind is the
    integer 0.

    Non-zero edges never skip levels; zero sub-trees are represented by
    the {e zero edge} at any level. These two invariants let every
    traversal pair matrix and vector nodes level by level, which the DMAV
    kernels rely on.

    A {!package} owns the arenas and tables. Indices from different
    packages must not be mixed. {!compact} really reclaims: swept slots go
    onto a free list and are reissued by later allocations, while the
    package epoch stamp keeps the compute caches from ever serving an
    entry recorded against a recycled index. *)

type vnode = private int
type mnode = private int
type vedge = private int
type medge = private int

type package

val create : ?tolerance:float -> unit -> package

(** {1 Terminals and zero edges} *)

val vterminal : vnode
val mterminal : mnode
val vzero : vedge
val mzero : medge
val vedge_is_zero : vedge -> bool
val medge_is_zero : medge -> bool

val vone : vedge
(** Terminal edge with weight 1 (the scalar 1 as a 0-qubit vector). *)

val mone : medge

(** {1 Edge and node accessors} *)

val vtgt : vedge -> vnode
val mtgt : medge -> mnode

val mwid : medge -> int
(** Ctable id of the edge weight; 0 iff the edge is the zero edge. *)

val vw : package -> vedge -> Cnum.t
(** The edge weight, resolved through the package's complex table. *)

val mw : package -> medge -> Cnum.t

val vid : vnode -> int
(** The arena slot index (0 for the terminal). Stable for the node's
    lifetime; reissued to a new node only after a {!compact} frees it. *)

val mid : mnode -> int

val vlevel : package -> vnode -> int
(** Qubit level; -1 for the terminal. *)

val mlevel : package -> mnode -> int
val v0 : package -> vnode -> vedge
val v1 : package -> vnode -> vedge

val mchild : package -> mnode -> int -> int -> medge
(** [mchild p n i j] is row [i], column [j] outgoing edge of node [n]. *)

val medge_child : package -> medge -> int -> int -> medge
(** [medge_child p e i j] is [mchild p (mtgt e) i j]. *)

(** {1 Construction} *)

val vterm_edge : package -> Cnum.t -> vedge
(** Terminal edge with the given weight, interned through the package's
    table (a weight within tolerance of zero yields the zero edge). *)

val mterm_edge : package -> Cnum.t -> medge

val munit : mnode -> medge

val make_vnode : package -> int -> vedge -> vedge -> vedge
(** [make_vnode p level e0 e1] is the normalized, deduplicated edge to the
    node with children [e0] (low) and [e1] (high). Returns the zero edge
    when both children are zero. The returned edge's weight carries the
    normalization factor; callers scale it as needed. *)

val make_mnode : package -> int -> medge -> medge -> medge -> medge -> medge
(** Same for matrix nodes; children in row-major order e00 e01 e10 e11. *)

val vscale : package -> vedge -> Cnum.t -> vedge
(** Multiplies an edge weight (canonicalized; exact zero collapses to the
    zero edge). *)

val mscale : package -> medge -> Cnum.t -> medge

(** {1 Arithmetic} *)

val vadd : package -> vedge -> vedge -> vedge
(** Pointwise vector addition (compute-cached). *)

val madd : package -> medge -> medge -> medge

val mv : package -> medge -> vedge -> vedge
(** Matrix-vector product — the DD-based simulation step. Grows the
    compute caches first if the DD has outgrown them ({!cache_slots}). *)

val mm : package -> medge -> medge -> medge
(** Matrix-matrix product (DDMM) — the gate-fusion primitive. Grows the
    compute caches like {!mv}. *)

(** {1 Inspection} *)

val vnode_count : package -> vedge -> int
(** Number of distinct nodes reachable from the edge (excluding the
    terminal) — the paper's "DD size" [s_i]. *)

val mnode_count : package -> medge -> int

val priced_paths : package -> terminal:float -> identity:float -> medge -> float
(** Root-to-terminal paths of a matrix DD, priced: a path into the
    terminal costs [terminal], and the walk stops at a canonical identity
    node at level [l] — [(e, 0, 0, e)] with [e] the unit edge to the
    identity one level down, [mone] at level 0 — charging
    [identity × 2^(l+1)] for it. [~terminal:1.0 ~identity:1.0] is the
    plain path count. Memoized per slot in package-owned scratch, so it
    allocates only the returned float; the zero edge counts 0. *)

val vamplitude : package -> vedge -> int -> Cnum.t
(** [vamplitude p e i] walks the path of basis index [i] from an edge at
    level [n-1]; O(n). *)

val mentry : package -> medge -> int -> int -> Cnum.t
(** Matrix entry (row, col) by path walk. *)

(** {1 Package maintenance} *)

val compact : package -> vroots:vedge list -> mroots:medge list -> unit
(** Mark-sweep garbage collection: every arena slot not reachable from the
    given roots is pushed onto the free list and reissued by later
    allocations. The package epoch is bumped so compute-cache entries from
    before the sweep can never alias a recycled index; live node indices
    remain valid. *)

val reset : package -> unit
(** Return the package to its just-created state: sweeps every
    non-terminal slot, clears the complex-number table (ids are reissued
    from the seeded constants), bumps the epoch and shrinks the compute
    caches back to a fresh package's {!cache_slots}. The arenas and the
    complex-number table keep their grown capacities. All previously
    issued edges are invalid afterwards. This is the warm-reuse primitive:
    a reset package computes bit-identical amplitudes to a fresh one, but
    skips the arena and table allocation, and an idle reset package does
    not hold a large job's cache slabs. *)

val epoch : package -> int
(** Number of {!compact} runs so far — the stamp the compute caches are
    validated against. *)

val cache_slots : package -> int
(** Slots in each of the four compute caches. A fresh package has 2^10;
    the top-level {!mv} and {!mm} grow the caches 4x at a time, dropping
    their entries, while {!live_vnodes} + {!live_mnodes} exceeds the slot
    count, up to 2^16. {!reset} returns them to 2^10. *)

val stats : package -> string
val live_vnodes : package -> int
val live_mnodes : package -> int

val vfree_slots : package -> int
(** Length of the vector arena's free list (reclaimed, reusable slots). *)

val mfree_slots : package -> int

val observe_gauges : package -> unit
(** Pushes the current arena occupancy into the [Obs] metrics gauges
    ([dd.unique.*.live], [dd.arena.*.capacity], [dd.arena.*.free]). No-op
    while metrics are disabled. *)

val memory_bytes : package -> int
(** Exact live bytes of the package, computed from the actual array
    capacities of the arenas, complex table and compute caches — no
    per-node estimate constants. Used by the memory experiments in place
    of RSS. *)

val ctable : package -> Ctable.t

(** {1 Raw kernel views}

    Flat windows onto the arena and weight storage for allocation-free
    kernels (DMAV traversal, DD→flat conversion). All arrays are the live
    backing stores — they are replaced when the arena or table grows, so
    capture a view per kernel invocation and do not allocate DD nodes or
    intern new weights while holding it. *)

type view = Storage.arena = {
  lv : int array;    (** slot -> level (-1 terminal, -2 free) *)
  ch : int array;    (** packed child edges, arena width per slot *)
  re : float array;  (** weight id -> real part *)
  im : float array;  (** weight id -> imaginary part *)
  ident : int array;
  (** level -> slot of the canonical identity node over that level and
      the ones below; levels past the end hold none. Empty in vector
      views. *)
}

val vview : package -> view
(** Vector arena ([ch] width 2: slots [2n], [2n+1]). *)

val mview : package -> view
(** Matrix arena ([ch] width 4: slots [4n .. 4n+3], row-major). [ident]
    is derived from the current arena by lookup-only unique-table probes,
    so it is valid exactly as long as the rest of the view. *)

val edge_tgt : int -> int
(** Unpack the target index of a raw packed edge read from a view. *)

val edge_wid : int -> int
(** Unpack the weight id of a raw packed edge read from a view. *)

(** {1 Test-only surface}

    Arena counters for the slot-conservation property test, which may not
    reference [Node_store] directly (the node-alloc-outside-arena lint
    rule bans that outside lib/dd). Not for production use. *)

module Testing : sig
  val varena_high_water : package -> int
  (** Slots ever issued by the vector arena — with {!live_vnodes} and
      {!vfree_slots}, the conservation check of the property test. *)

  val marena_high_water : package -> int
end
