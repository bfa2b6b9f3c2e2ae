(** Gate application on flat state vectors — the array-based engine.

    Gates act by local amplitude manipulation (Equations 2 and 3 of the
    paper): a single-qubit gate on qubit [k] touches each amplitude pair
    that differs only in bit [k]; controls restrict the pairs to indices
    whose control bits are 1. All entry points have a sequential core and
    distribute index ranges over a {!Pool.t} when one of size > 1 is
    given. *)

val single :
  ?pool:Pool.t -> State.t -> Gate.single -> target:int -> controls:int list -> unit
(** In-place application of a (multi-)controlled single-qubit gate. *)

val two : ?pool:Pool.t -> State.t -> Gate.two -> q_hi:int -> q_lo:int -> unit
(** In-place application of a two-qubit unitary; the 4×4 matrix is indexed
    by [2·b(q_hi) + b(q_lo)]. It runs on the local leg's array walk
    ({!Storage.S.local_apply}) with every entry taken. *)

val op : ?pool:Pool.t -> State.t -> Circuit.op -> unit

val circuit : ?pool:Pool.t -> State.t -> Circuit.t -> unit
(** Applies every operation in order. *)

val run : ?pool:Pool.t -> Circuit.t -> State.t
(** [run c] simulates [c] from |0…0⟩ on the fast array kernels: the
    dense reference the tests check the other engines against. The
    paper's Quantum++ baseline is {!Qpp_kernel}, not this.
    For a per-gate timed run, use [Driver.run_engine] over the dense
    engine with [trace] enabled — the timing loop lives in the driver's
    unified trace path, not here. *)
