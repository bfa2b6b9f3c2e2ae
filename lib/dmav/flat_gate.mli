(** Flat-phase gates compiled for the DMAV executor.

    The planner compiles each gate of the flat phase once, as it emits
    it: a wide gate is assigned once, column-major ({!Cost.breakdown}, one
    count walk per distinct task node), the kernel is picked from those
    counts ({!Cost.dispatch}) at the pool size the gate will run on, the
    sub-matrices its tasks enter are copied into the gate's own arena
    ({!Dd.export}), and the task lists become flat arrays of Run calls
    over gate-local slots, with the cached kernel's hits, ratios and the
    breakdown's buffer plan. Algorithm 1 runs the transpose of
    Algorithm 2's lists: thread [r]'s row block, its tasks in ascending
    column block. Running a compiled gate reads nothing of the
    {!Dd.package}, so the planner may keep fusing while earlier gates
    run. A compiled gate is immutable and may be run on any pool: the
    [threads] virtual task lists are the same whether [threads] domains
    run one each or one domain runs them all, so are the bytes. A gate
    given by its form (any op, or a fused product on at most two levels)
    is compiled from its matrices ({!of_local}), not from a DD, to its
    [Local] form: a 2×2 or 4×4 matrix applied in place, under a control
    mask. Only a wide gate ({!compile}) is priced between kernels: the
    Run against Algorithm 2.

    A task whose sub-matrix models more than [piece_macs] MACs is split
    into the Run calls of its children, in the recursion's order and
    with its weight products, which leaves every output element's MACs
    and their order unchanged. *)

type program = private {
  n : int;
  arena : Storage.arena;        (** the gate's own nodes and weights *)
  cached : bool;                (** Algorithm 2 (column-space caching) *)
  threads : int;                (** virtual task lists, a power of two *)
  lists : int array;            (** [threads + 1] offsets: list [u] is tasks [lists.(u) ..] *)
  tasks : int array;
  (** per task, three ints: I_V (uncached) or the output block (cached);
      for a cached hit the block it scales, else [-1]; its first piece.
      One more entry closes the last task's pieces. *)
  ratios : float array;         (** cached: per task, the hit's weight ratio (re, im) *)
  pieces : int array;           (** per Run call, three ints: gate-local node, iv, iw *)
  weights : float array;        (** per Run call, its full weight product (re, im) *)
  buffers : int;                (** cached: partial-output buffers [b] *)
  thread_buffer : int array;    (** cached: task list -> buffer *)
  occupied : int array array;   (** cached: per buffer, the blocks written *)
  contributors : int array array;
  (** cached: per output block, the buffers summed into it, in order *)
  hits : int;                   (** cached: modeled (= realized) hits [H] *)
}

type local = private {
  support : int;
  (** the levels its matrix spans, as a bit mask of one or two bits *)
  controls : int;
  (** the control levels, a bit mask disjoint from [support]: the matrix
      acts where they are all 1, the identity elsewhere; 0 for none *)
  u : float array;
  (** its [2^s × 2^s] matrix, row-major (re, im), the higher support
      level the major index bit *)
  paths : int;  (** bit [r·2^s + c] set where the entry is not 0 *)
}
(** A gate given by its form: its matrix is the identity on all but its
    support and its controls, built from op matrices ({!local_of_op},
    {!local_product}) and run as {!Storage.S.local_apply}, in place, over
    the amplitudes whose control bits are all 1 (DESIGN.md). It holds no
    arena. *)

type body =
  | Dmav of program      (** the Run, uncached or cached *)
  | Local of local       (** the local leg *)

type t = {
  body : body;
  dispatch : Cost.dispatch;     (** the kernel it runs and its modeled costs *)
  identity_macs : float;
  (** the pick's modeled MACs under identity stripes, read off its
      pricing: the breakdown's [k1_stripe] or [k2_stripe], a form's
      stripe count *)
}
(** The one record of what a flat gate runs: the driver reads the
    kernel, price, support, modeled MACs and cache hits it counts and
    traces off it. *)

val piece_macs : float
(** The split threshold, in {!Cost.priced} units without the visit
    term: a Run call under it took at most 0.44 ms at
    hybrid-deep's sizes on the 2-core Xeon it was measured on. *)

val program : ?piece_macs:float -> Dd.package -> n:int -> cached:bool -> Cost.breakdown -> program
(** The Run program of one kernel over the breakdown's task lists
    ({!Cost.assign}: [t] column-major lists, [t] a power of two, at most
    2ⁿ), without pricing: Algorithm 2 runs them with the breakdown's
    buffer plan, Algorithm 1 their transpose. [piece_macs] (default
    {!piece_macs}) is there for the tests, which split down to single
    Run calls. *)

(** {1 Forms}

    The form of a gate built from its matrix, with no DD. A form is
    normalized as its DD would be: entries within {!Cnum.tolerance} of
    zero are 0 and have no path, and an uncontrolled form drops the
    levels its matrix is trivial on (the identity, its diagonal blocks
    within {!Cnum.tolerance}), so its [support] is the levels the matrix
    acts on; a multiple of the identity acts on level [n − 1]. A form on
    at most two levels ({!narrow}) is what the flat phase's fusion
    multiplies as a matrix of at most 16×16. *)

val local_of_op : n:int -> Circuit.op -> local
(** Every op's form: a single-qubit op is its 2×2 on the target under
    its controls (any number, as the mask; only an uncontrolled one
    drops a trivial level), a two-qubit op its 4×4 (its bits swapped
    when [q_hi < q_lo]). Its entries are the op matrix's. *)

val acts_on : local -> int
(** The levels the form acts on: its support and its controls. *)

val narrow : n:int -> local -> local option
(** The form on at most two levels ({!acts_on}) as fusion multiplies
    and prices it: a control folded into a 4×4 matrix (the identity
    where the control is 0), normalized as the op's DD would be; [None]
    on more levels. *)

type product =
  | Narrow_product of local  (** the product acts on at most two levels *)
  | Wide_product of Dd.paths
  (** it acts on three or four: its DD's path counts
      ({!Dd.priced_paths}) *)

val local_product : n:int -> local -> local -> product
(** [local_product ~n a b] is the product [a·b] of two forms on at most
    two levels each (their {!narrow} forms) on the union of their
    levels, as a matrix of at most 16×16 whose entries sum their terms
    in ascending order. A product on more than two levels is only
    priced: the caller that keeps it builds its DD. *)

val local_paths : n:int -> local -> Dd.paths
(** {!Dd.priced_paths} of the form's DD, from its block pattern alone,
    without a matrix over its controls. *)

val local_dd : Dd.package -> n:int -> local -> Dd.medge
(** The form's matrix DD ({!Mat_dd.of_single} or {!Mat_dd.of_two}). *)

val of_local : n:int -> threads:int -> local -> t
(** Compiles a form without its DD to the local leg
    ({!Cost.local_dispatch}). *)

val compile : Dd.package -> n:int -> threads:int -> Dd.medge -> t
(** Prices a wide gate, given by its matrix DD, on the Run and on
    Algorithm 2 for a pool of [threads] ({!Cost.breakdown} and
    {!Cost.dispatch}, one [dmav.cost] span) and compiles the cheaper
    from the same assignment. Never [Local]: only {!of_local} compiles
    to that. *)

val pieces : program -> int
(** Run calls in the program. *)
