(** Full state vectors over [n] qubits, stored as a flat {!Buf.t}.

    This module owns state construction, sampling and observable
    evaluation; {!Apply} owns gate application. Together they
    form the array-based simulation engine the paper compares against
    (Quantum++-style local amplitude manipulation). *)

type t = { n : int; amps : Buf.t }

val zero_state : int -> t
(** |0…0⟩. *)

val basis_state : int -> int -> t
(** [basis_state n i] is |i⟩. *)

val of_buf : int -> Buf.t -> t
(** Wraps an amplitude vector; its length must be [2^n]. *)

val copy : t -> t
val dim : t -> int
val amplitude : t -> int -> Cnum.t
val probability : t -> int -> float
val norm2 : t -> float

val most_likely : t -> int * float
(** Basis index with the largest probability. *)

type pauli = I | X | Y | Z

val expectation_pauli : t -> (float * (int * pauli) list) list -> float
(** [expectation_pauli st terms] evaluates ⟨ψ|H|ψ⟩ for a Hamiltonian given
    as weighted Pauli strings, e.g.
    [[(0.5, [(0, Z); (1, Z)]); (-1.0, [(2, X)])]]. *)

module Sampler : sig
  type state = t
  type t

  val create : state -> t
  (** Builds a cumulative-probability table for O(log N) sampling. *)

  val sample : t -> Rng.t -> int
  val counts : t -> Rng.t -> shots:int -> (int * int) list
  (** [counts s rng ~shots] draws [shots] samples and returns
      (basis index, count) pairs sorted by decreasing count. *)
end
