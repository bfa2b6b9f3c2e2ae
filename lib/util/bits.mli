(** Bit-manipulation helpers used throughout the simulator.

    State-vector indices are [n]-bit integers where bit [k] is the value of
    qubit [k] (qubit 0 is the least significant). All functions operate on
    native [int]s, and so does a register's dimension [1 lsl n], which
    limits circuits to 61 qubits ([Circuit.max_qubits]) — far beyond what
    a full-state simulator can hold in memory anyway. *)

val is_pow2 : int -> bool
(** [is_pow2 x] is [true] iff [x] is a positive power of two. *)

val log2_exact : int -> int
(** [log2_exact x] is [log2 x] for a positive power of two [x].
    @raise Invalid_argument otherwise. *)

val floor_log2 : int -> int
(** [floor_log2 x] is the position of the highest set bit of [x > 0]. *)

val ceil_pow2 : int -> int
(** [ceil_pow2 x] is the smallest power of two [>= x] (for [x >= 1]). *)

val bit : int -> int -> int
(** [bit i k] is bit [k] of [i] (0 or 1). *)

val set_bit : int -> int -> int
(** [set_bit i k] is [i] with bit [k] forced to 1. *)

val clear_bit : int -> int -> int
(** [clear_bit i k] is [i] with bit [k] forced to 0. *)

val insert_bit : int -> int -> int -> int
(** [insert_bit i k b] widens [i] by one bit: bits [>= k] of [i] are shifted
    up one position and bit [k] of the result is [b]. Used to enumerate all
    indices with a fixed value at one qubit position. *)

val insert_bit2 : int -> int -> int -> int -> int -> int
(** [insert_bit2 i k1 b1 k2 b2] inserts two bits, [k1 < k2] referring to
    positions in the {e widened} result. *)

val popcount : int -> int
(** Number of set bits. *)

val reverse_bits : int -> int -> int
(** [reverse_bits i n] reverses the lowest [n] bits of [i]. *)

val all_masks : int list -> int
(** [all_masks ks] is the bitwise OR of [1 lsl k] for each [k]. *)
