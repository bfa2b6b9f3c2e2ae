(** Flat-phase gates compiled for the DMAV executor.

    The planner compiles each gate of the flat phase once, as it emits
    it: the kernel is picked ({!Cost.dispatch}) at the pool size the
    gate will run on, the sub-matrices its Assign tasks ({!Cost.assign})
    enter are copied into the gate's own arena ({!Dd.export}), and the
    task lists become flat arrays of Run calls over gate-local slots, with the cached kernel's hits, ratios and buffer
    plan decided too. Running a compiled gate reads nothing of the
    {!Dd.package}, so the planner may keep fusing while earlier gates
    run. A compiled gate is immutable and may be run on any pool: the
    [threads] virtual task lists are the same whether [threads] domains
    run one each or one domain runs them all, so are the bytes. A narrow
    gate (an op of support ≤ 2, or a product of such gates on at most
    two levels) is compiled from its matrices ({!of_local}), not from a
    DD, to its [Local] form: a 2×2 or 4×4 matrix applied in place. A
    wide gate ({!compile}) never takes the local leg.

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
  (** the levels the gate acts on, as a bit mask of one or two bits *)
  u : float array;
  (** its [2^s × 2^s] matrix, row-major (re, im), the higher support
      level the major index bit *)
  paths : int;  (** bit [r·2^s + c] set where the entry is not 0 *)
}
(** A narrow gate: its matrix is the identity on all but at most two
    levels, built from op matrices ({!local_of_op}, {!local_product}) and
    run as {!Storage.S.local_apply}, in place (DESIGN.md). It holds no
    arena. *)

type body =
  | Dense of Circuit.op  (** the dense direct kernel on an unfused op *)
  | Dmav of program      (** the Run, uncached or cached *)
  | Local of local       (** the local leg *)

type t = {
  body : body;
  dispatch : Cost.dispatch;     (** the pick and its modeled costs *)
  identity_macs : float;
  (** {!Cost.identity_macs} of the pick; computed only while [Obs] is on *)
}
(** The one record of what a flat gate runs: the driver reads the
    kernel, price, support, modeled MACs and cache hits it counts and
    traces off it. *)

val piece_macs : float
(** The split threshold, in {!Cost.priced_macs} units without the
    visit term: a Run call under it took at most 0.44 ms at
    hybrid-deep's sizes on the 2-core Xeon it was measured on. *)

val program :
  ?piece_macs:float -> Dd.package -> n:int -> t:int -> cached:bool -> Dd.medge -> program
(** The Run program of one kernel over [t] virtual task lists ([t] a
    power of two, at most 2ⁿ), without pricing. [piece_macs] (default
    {!piece_macs}) is there for the tests, which split down to single
    Run calls. *)

(** {1 Narrow forms}

    The local form of a gate of support ≤ 2 built from its matrix, with
    no DD: the flat phase's fusion multiplies such gates as matrices of
    at most 16×16. A form is normalized as its DD would be: entries
    within {!Cnum.tolerance} of zero are 0 and have no path, and the
    levels the matrix is trivial on (the identity, its diagonal blocks
    within {!Cnum.tolerance}) are dropped, so its [support] is the levels
    the matrix acts on. A multiple of the identity acts on level
    [n − 1]. *)

val local_of_op : n:int -> Circuit.op -> local option
(** The form of an uncontrolled single-qubit op (2×2), a singly
    controlled one (4×4, the identity where the control is 0) or a
    two-qubit op (4×4, its bits swapped when [q_hi < q_lo]); [None] for
    a gate with two or more controls. Its entries are the op matrix's. *)

type product =
  | Narrow_product of local  (** the product acts on at most two levels *)
  | Wide_product of float
  (** it acts on three or four: its DD's priced MACs ({!Dd.priced_paths}
      with terminal 1, the given identity price and
      {!Cost.visit_price}) *)

val local_product : n:int -> identity:float -> local -> local -> product
(** [local_product ~n ~identity a b] is the product [a·b] on the union of
    their supports, as a matrix of at most 16×16 whose entries sum their
    terms in ascending order. A product on more than two levels is only
    priced: the caller that keeps it builds its DD. *)

val local_paths : n:int -> terminal:float -> identity:float -> visit:float -> local -> float
(** {!Dd.priced_paths} of the form's DD, from its block pattern alone. *)

val local_dd : Dd.package -> n:int -> local -> Dd.medge
(** The form's matrix DD ({!Mat_dd.of_single} or {!Mat_dd.of_two}). *)

val of_local : n:int -> threads:int -> ?op:Circuit.op -> local -> t
(** Compiles a form without its DD ({!Cost.local_dispatch}): [Local], or
    [Dense] when [op], the form's unfused op, is priced no higher there. *)

val compile : Dd.package -> n:int -> threads:int -> ?op:Circuit.op -> Dd.medge -> t
(** Prices a wide gate, given by its matrix DD, on every kernel it may
    take for a pool of [threads] ({!Cost.dispatch}, one [dmav.cost]
    span) and compiles the cheapest: [Dense] (eligible when [op], the
    unfused circuit op, is given) or the Run program, uncached or
    cached. Never [Local]: only {!of_local} compiles to the local leg. *)

val pieces : program -> int
(** Run calls in the program. *)
