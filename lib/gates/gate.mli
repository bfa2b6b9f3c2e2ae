(** Quantum gate matrices.

    A {!single} is a 2×2 unitary acting on one qubit; a {!two} is a 4×4
    unitary acting on an ordered pair of qubits. Rows and columns are
    indexed by basis states; for {!two}, index [2·b_hi + b_lo] where
    [b_hi] is the first (more significant) qubit of the pair.

    Everything the benchmark circuits need is provided as a constant or a
    parametric constructor, including the √X/√Y/√W gates of Google's
    quantum-supremacy experiment. *)

type single = Cnum.t array array
(** 2×2 row-major. *)

type two = Cnum.t array array
(** 4×4 row-major. *)

(** {1 Constant single-qubit gates} *)

val id2 : single
val x : single
val y : single
val z : single
val h : single
val s : single
val sdg : single
val t : single
val tdg : single
val sx : single
(** √X. *)

val sy : single
(** √Y. *)

val sw : single
(** √W with W = (X+Y)/√2, the third single-qubit gate of the supremacy
    gate set. *)

(** {1 Parametric single-qubit gates} *)

val rx : float -> single
val ry : float -> single
val rz : float -> single
val phase : float -> single
(** [phase λ] = diag(1, e^{iλ}), i.e. [u1]. *)

val u2 : float -> float -> single
val u3 : float -> float -> float -> single
(** OpenQASM [u3(θ,φ,λ)]. *)

(** {1 Two-qubit gates} *)

val swap2 : two
val iswap : two
val cz2 : two
val fsim : float -> float -> two
(** [fsim θ φ], the supremacy two-qubit interaction. *)

(** {1 Operations} *)

val mul2 : single -> single -> single
val adjoint : single -> single
val adjoint4 : two -> two
val mul4 : two -> two -> two

val is_unitary : ?tol:float -> single -> bool
val is_unitary4 : ?tol:float -> two -> bool

val equal : ?tol:float -> single -> single -> bool
(** Entrywise within [tol] (default 1e-12); also compares two {!two}
    matrices, which are of the same type. *)

val pp : Format.formatter -> single -> unit
