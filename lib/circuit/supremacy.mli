(** Random-circuit-sampling benchmark in the style of Google's quantum
    supremacy experiment (Arute et al., Nature 2019): a 2-D qubit grid,
    cycles of random single-qubit gates from {√X, √Y, √W} (never repeating
    on a qubit in consecutive cycles) interleaved with fSim two-qubit
    interactions over four alternating link patterns, framed by Hadamard
    layers. Maximally irregular: the state approaches Haar-random. *)

type grid = { rows : int; cols : int }

val grid_of : int -> grid
(** The most square grid factorization of the qubit count. *)

val qubit : grid -> int -> int -> int

val circuit : ?seed:int -> cycles:int -> int -> Circuit.t

val circuit_with_gates : ?seed:int -> gates:int -> int -> Circuit.t
(** Chooses the cycle count to approximate a total gate budget. *)
