(** Complex numbers for simulation.

    A dedicated record type (rather than [Stdlib.Complex]) so the whole
    code base shares one set of helpers tuned for the simulator: near-zero
    tests under the DD tolerance, hashing for table keys, and the handful
    of constants (0, 1, 1/√2, ω) that dominate gate definitions. *)

type t = { re : float; im : float }

val zero : t
val one : t
val minus_one : t
val i : t
val sqrt2_inv : t
(** 1/√2, the Hadamard weight. *)

val make : float -> float -> t
val of_float : float -> t
val polar : float -> float -> t
(** [polar r theta] is [r·e^{iθ}]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val conj : t -> t
val scale : float -> t -> t
val norm2 : t -> float
(** Squared magnitude. *)

val norm : t -> float
val arg : t -> float

val equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison within [tol] (defaults to {!tolerance}). *)

val is_zero : ?tol:float -> t -> bool
val is_one : ?tol:float -> t -> bool

val tolerance : float
(** Default DD tolerance (1e-10): weights closer than this are identified,
    which is what makes decision-diagram uniquing robust to rounding. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
