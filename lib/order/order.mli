(* Explicit qubit orders: a bijection from logical qubit to physical
   position (DD level / amplitude bit position), plus the pre-simulation
   scoring pass that picks an initial order from the circuit's
   qubit-interaction graph.

   Everywhere in this codebase, [t] maps *logical qubit -> physical
   position*. An identity order means the simulator's internal basis is
   the circuit's own. *)

type t

val identity : int -> t
(** [identity n] is the identity order on [n] qubits. *)

val of_array : int array -> t
(** [of_array a] validates that [a] is a permutation of [0..n-1] and
    wraps it. @raise Invalid_argument otherwise. *)

val to_array : t -> int array
(** Fresh copy of the underlying array; [ (to_array t).(q) ] is the
    physical position of logical qubit [q]. *)

val is_identity : t -> bool

val apply : t -> int -> int
(** [apply t q] is the physical position of logical qubit [q]. *)

val permute_index : t -> int -> int
(** Basis-state index map: [permute_index t i] is the physical amplitude
    index holding logical basis state [i] — bit [q] of [i] lands at bit
    position [apply t q]. Index [0] is a fixed point of every order. *)

val byte_tables : t -> int array array
(** {!permute_index} as per-byte lookup tables: table [b] maps the
    8-bit value of index bits [8b .. 8b+7] to those bits' physical
    positions, and [permute_index t i] is the [lor] over [b] of
    [(byte_tables t).(b).((i lsr (8 * b)) land 255)]. *)

val score : Circuit.t -> t -> float
(** Adjacent-interaction cost of an order: for every pair of qubits that
    share a gate, their interaction count times the distance between
    their physical positions. Lower is better; an order placing every
    interacting pair on adjacent levels scores the bare interaction
    count. *)

val static_order : Circuit.t -> t
(** Scoring pass: builds the qubit-interaction graph, seeds a placement
    sequence from the most-connected qubit, greedily attaches the
    strongest-coupled remaining qubit, then hill-climbs with adjacent
    transpositions. Deterministic (all ties break toward the lower qubit
    index). Returns [identity n] unless the scored order strictly beats
    the identity, so well-ordered circuits are left untouched. *)
