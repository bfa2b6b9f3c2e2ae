(** Small statistics helpers for the benchmark harness. *)

val mean : float list -> float
val geomean : float list -> float
(** Geometric mean; the paper reports averages of ratios this way.
    All inputs must be positive. *)

val min_max : float list -> float * float
