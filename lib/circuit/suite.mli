(** Registry of named benchmark circuits, the single source the CLI, the
    examples, and the benchmark harness draw from. *)

type family =
  | Dnn
  | Adder
  | Ghz
  | Vqe
  | Knn
  | Swap_test
  | Supremacy
  | Qft
  | Grover
  | Bv
  | Qpe

val all_families : family list
val family_name : family -> string
val family_of_name : string -> family option

val regular : family -> bool
(** [true] for circuits whose state stays DD-friendly throughout (Adder,
    GHZ, BV), per the paper's regular/irregular split. *)

val check_gates : int -> unit
(** Raises [Invalid_argument] unless the gate count is in [\[1, 100000\]].
    A generated circuit holds all its ops in memory, so a larger request
    could exhaust it. *)

val generate : ?seed:int -> ?gates:int -> family -> n:int -> Circuit.t
(** [generate fam ~n] builds the family's circuit on [n] qubits. [gates]
    sets an approximate target gate count for the depth-parameterized
    families (DNN, VQE, Supremacy, Grover); the others have a structural
    gate count that [gates] does not change. Raises [Invalid_argument]
    when [gates] fails {!check_gates}. *)
