(** Deterministic pseudo-random number generation.

    All benchmark circuits are generated from explicit seeds so that every
    run — tests, examples, benchmarks — sees the same circuits. The
    generator is xoshiro256**, seeded through splitmix64, the combination
    recommended by the xoshiro authors. *)

type t

val create : int -> t
(** [create seed] builds a fresh generator from a 63-bit seed. *)

val next : t -> int64
(** Raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound > 0] required. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val angle : t -> float
(** Uniform rotation angle in [\[0, 2π)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val derive : int -> int -> int
(** [derive seed index] is a stateless splitmix64-mixed sub-seed for the
    [index]-th item under a base [seed]: manifest jobs without an explicit
    seed get [derive base line_index], so a whole batch is reproducible
    from one number. Always nonnegative; [index >= 0] required. *)
