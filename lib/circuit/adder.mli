(** Cuccaro ripple-carry adder (quant-ph/0410184).

    The regular arithmetic workload: the state remains a computational
    basis state for the whole run, so the DD engine simulates it in
    microseconds while a flat-array engine pays 2ⁿ work per gate.

    Register layout on [n = 2k + 2] qubits: carry-in at 0, interleaved
    [b_i]/[a_i] at 1..2k, carry-out at 2k+1. After the circuit, the [b]
    register holds [a + b] (low bits) with the carry-out on top, and the
    [a] register is restored. *)

val circuit : ?seed:int -> int -> Circuit.t
(** [circuit n] loads two random [k]-bit operands (drawn from [seed]) with
    X gates and adds them. [n] must be even and ≥ 4.
    @raise Invalid_argument otherwise. *)

val expected : ?seed:int -> int -> int * int * int
(** The classical [(a, b, a + b)] the circuit computes. *)

val expected_basis_index : ?seed:int -> int -> int
(** The basis state the final superposition-free state must equal. *)
