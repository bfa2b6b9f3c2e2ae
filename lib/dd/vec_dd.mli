(** State vectors as decision diagrams. *)

val zero_state : Dd.package -> int -> Dd.vedge
(** |0…0⟩ over [n] qubits — an [n]-node chain. *)

val basis_state : Dd.package -> int -> int -> Dd.vedge
(** [basis_state p n i] is |i⟩. *)

val of_buf : Dd.package -> Buf.t -> Dd.vedge
(** Builds the canonical DD of a flat vector (length must be a power of
    two). Equal sub-vectors are shared; the result round-trips through
    {!to_buf} up to the package tolerance. *)

val to_buf : Dd.package -> int -> Dd.vedge -> Buf.t
(** Sequential DD→array conversion (the DDSIM-style baseline the parallel
    converter is compared against): one depth-first walk writing weight
    products into a fresh [2^n] buffer, {!Storage.convert} with fills
    off, allocating nothing per amplitude. *)

val norm2 : Dd.package -> Dd.vedge -> float
(** Σ|amplitude|² computed on the DD in one memoized pass. *)
