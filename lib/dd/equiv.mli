(** Decision-diagram circuit equivalence checking.

    Two circuits are equivalent when U₂†·U₁ is the identity (up to global
    phase). Decision diagrams make this tractable far beyond dense linear
    algebra: the product is built gate by gate with DDMM, and the identity
    test is a structural O(n) walk on the canonical DD — a miniature of
    the MQT QCEC approach, and a natural by-product of the DD substrate
    FlatDD is built on. *)

type verdict =
  | Equivalent
  | Equivalent_up_to_phase of Cnum.t  (** the global phase e^{iφ} *)
  | Not_equivalent

val check : ?package:Dd.package -> Circuit.t -> Circuit.t -> verdict
(** [check c1 c2] decides whether the circuits implement the same unitary.
    @raise Invalid_argument when the qubit counts differ. *)
