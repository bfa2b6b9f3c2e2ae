(** Quantum circuit intermediate representation.

    A circuit is a qubit count plus an ordered array of operations. Each
    operation is either a single-qubit unitary with an arbitrary set of
    (positive) controls — which covers X, CX, CCX, CZ, controlled phases,
    and every other gate the benchmark suite uses — or an uncontrolled
    two-qubit unitary (iSWAP, fSim) that has no single-qubit + controls
    form.

    Qubit 0 is the least significant bit of a state index. *)

type op =
  | Single of { name : string; matrix : Gate.single; target : int; controls : int list }
  | Two of { name : string; matrix : Gate.two; q_hi : int; q_lo : int }
      (** 4×4 [matrix] indexed by [2·b(q_hi) + b(q_lo)]. [q_hi <> q_lo] but
          either may be the more significant qubit of the register. *)

type t = { n : int; name : string; ops : op array }

val max_qubits : int
(** 61: state indices and a register's dimension 2ⁿ are native ints
    ({!Bits}), and [1 lsl 62] is negative. *)

val check_qubits : int -> unit
(** The one bound on a register's width, which {!make}, {!remap} and
    {!Builder.create} apply: 1 to {!max_qubits} qubits. Front ends call
    it first to name the input at fault.
    @raise Invalid_argument otherwise, with a message naming the count. *)

val make : ?name:string -> int -> op list -> t
(** Validates the qubit count ({!check_qubits}) and that every referenced
    qubit is in range, controls are distinct and never equal the target.
    @raise Invalid_argument on malformed operations. *)

val num_gates : t -> int
val op_qubits : op -> int list
val op_name : op -> string

val append : t -> t -> t
(** Concatenates two circuits over the same register. *)

val adjoint : t -> t
(** The inverse circuit: operations reversed, each gate replaced by its
    adjoint. [append c (adjoint c)] implements the identity. *)

val depth : t -> int
(** Circuit depth under the usual greedy layering: each operation starts
    at layer [1 + max] over the layers of the qubits it touches. *)

val remap : t -> n:int -> int array -> t
(** [remap c ~n perm] re-targets the circuit onto an [n]-qubit register:
    qubit [i] of [c] becomes qubit [perm.(i)]. Used to embed a smaller
    circuit (e.g. a QFT on a counting register) into a larger one.
    @raise Invalid_argument if [perm] is not injective into [0..n-1]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing (one line per gate). *)

(** Imperative builder used by the generators and the QASM front end. *)
module Builder : sig
  type b

  val create : ?name:string -> int -> b
  (** @raise Invalid_argument outside {!check_qubits}'s bound. *)

  val add : b -> op -> unit
  val single : b -> ?controls:int list -> string -> Gate.single -> int -> unit

  (** Named shorthands; [controls] default to none. *)

  val h : b -> int -> unit
  val x : b -> int -> unit
  val y : b -> int -> unit
  val z : b -> int -> unit
  val s : b -> int -> unit
  val sdg : b -> int -> unit
  val t : b -> int -> unit
  val tdg : b -> int -> unit
  val sx : b -> int -> unit
  val sy : b -> int -> unit
  val sw : b -> int -> unit
  val rx : b -> float -> int -> unit
  val ry : b -> float -> int -> unit
  val rz : b -> float -> int -> unit
  val phase : b -> float -> int -> unit
  val u2 : b -> float -> float -> int -> unit
  val u3 : b -> float -> float -> float -> int -> unit

  val cx : b -> control:int -> target:int -> unit
  val cy : b -> control:int -> target:int -> unit
  val cz : b -> control:int -> target:int -> unit
  val cp : b -> float -> control:int -> target:int -> unit
  val crz : b -> float -> control:int -> target:int -> unit
  val ccx : b -> c1:int -> c2:int -> target:int -> unit

  val swap : b -> int -> int -> unit
  (** Decomposed into three CX, as QASMBench circuits do. *)

  val cswap : b -> control:int -> int -> int -> unit
  (** Fredkin, decomposed as CX·CCX·CX. *)

  val iswap : b -> int -> int -> unit
  val fsim : b -> theta:float -> phi:float -> int -> int -> unit

  val finish : b -> t
end
