(** DD-to-array state-vector conversion (paper §3.1.2).

    Both converters run one allocation-free C walk over the package's
    arena view ({!Storage.convert}). {!sequential} is the DDSIM-style
    baseline: that walk from the root with fills off, every amplitude its
    path's weight product ([Vec_dd.to_buf]).

    {!parallel} implements FlatDD's converter with its two optimizations:

    - {b load balancing}: worker splitting never descends into zero edges,
      so no thread is parked on an empty sub-tree. We split the DD into at
      least [4 × threads] sub-tree tasks drained through an atomic cursor,
      which subsumes the paper's even per-node splitting and also balances
      DDs whose non-zero mass is lopsided;
    - {b scalar multiplication}: when a node's two outgoing edges point to
      the same child, only the low half is converted by DFS; the high half
      is filled afterwards with one SIMD-style block scale by the weight
      ratio. Fills discovered at level [l] depend only on data below
      level [l], so fills are executed level by level, in parallel, after
      the DFS tasks complete.

    The split and the level-ordered fills are OCaml; each task is one
    walk call, which fills inline below the task node. A walk call
    cannot join a minor collection, so no task covers more than 2¹⁶
    amplitudes: past that the split goes on below its budget. The bytes
    do not depend on the pool size or on how deep the split goes. *)

type stats = {
  tasks : int;            (** DFS sub-tree tasks created *)
  fills : int;            (** scalar-multiplication block fills *)
  filled_amplitudes : int;(** amplitudes produced by scaling, not DFS *)
}

val sequential : Dd.package -> n:int -> Dd.vedge -> Buf.t

val parallel : Dd.package -> pool:Pool.t -> n:int -> Dd.vedge -> Buf.t * stats
(** [parallel p ~pool ~n e] converts an [n]-qubit state DD rooted at [e].
    The walks read the package's raw arena view, so the DD must not be
    mutated (no node construction, no interning) during the conversion. *)
