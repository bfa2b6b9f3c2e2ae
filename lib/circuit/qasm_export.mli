(** OpenQASM 2.0 export — the inverse of {!Qasm}.

    Since the IR stores concrete matrices rather than symbolic parameters,
    single-qubit gates are re-parameterized on export: any 2×2 unitary
    factors as [e^{iα}·u3(θ,φ,λ)], recovered numerically from the matrix.
    An uncontrolled gate's global phase is unobservable and dropped; for a
    singly-controlled gate, the phase becomes an extra [u1(α)] on the
    control (the textbook controlled-U construction). Doubly-controlled
    gates are emitted only for the standard named forms (ccx and friends);
    everything else raises {!Unsupported}, as do [Two] ops, whose 4×4
    matrices have no faithful qelib1 spelling ([iswap] is provided via a
    macro definition in the preamble).

    Round-trip guarantee (covered by the test suite): parsing the exported
    text yields a circuit implementing the same unitary. *)

exception Unsupported of string

val zyz : Gate.single -> float * float * float * float
(** [zyz u] is [(α, θ, φ, λ)] with [u = e^{iα}·u3(θ, φ, λ)]. *)

val to_string : Circuit.t -> string
(** Full program: header, includes, macro preamble (when needed), [qreg],
    statements. *)

val to_file : string -> Circuit.t -> unit
