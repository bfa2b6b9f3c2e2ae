(** Tolerance-bucketed interning of complex values.

    Decision diagrams are only canonical if edge weights that are "equal up
    to numerical noise" are represented by one value. Following DDSIM's
    complex-number table, this module interns values on a grid of width
    {!Cnum.tolerance}: a lookup snaps the value to a previously stored
    representative when one lies within tolerance (checking the neighboring
    grid buckets to avoid boundary misses) and assigns each representative
    a small integer id that unique tables and compute caches hash on.
    Ids are sequential: the k-th distinct value gets id k - 1. *)

type t

val create : unit -> t

val id : t -> Cnum.t -> int
(** [id t c] is the id of the canonical representative of [c], inserting
    [c] as a new representative if no stored value is within tolerance.
    Exact zero and one are pre-seeded with ids 0 and 1, so [id = 0]
    reliably means the zero weight. A hit allocates nothing. *)

val canon : t -> Cnum.t -> Cnum.t
(** [canon t c] is [value_of_id t (id t c)]. *)

val zero_id : int
val one_id : int

val count : t -> int
(** Number of distinct representatives stored. *)

val value_of_id : t -> int -> Cnum.t
(** Dense reverse lookup: the canonical value whose {!id} was handed out.
    The returned record is physically the one {!canon} returns for that
    value. Raises [Invalid_argument] on an id never issued. *)

val re_of_id : t -> int -> float
(** Real part of {!value_of_id}[ t i] as a bare float — same bounds
    contract, no allocation. *)

val im_of_id : t -> int -> float
(** Imaginary counterpart of {!re_of_id}. *)

val re_array : t -> float array
(** The unboxed real plane of the reverse map, indexed by id. Ids are
    issued in insertion order from 0, so ids [0 .. count - 1] are valid;
    slots past them hold 0.0. The array itself is replaced when the table
    grows, so capture it only for the duration of one allocation-free
    kernel. *)

val im_array : t -> float array
(** Imaginary plane, same contract as {!re_array}. *)

val memory_bytes : t -> int
(** Bytes held by the table: every array at its capacity, the records and
    the boxed representatives, headers included. *)
