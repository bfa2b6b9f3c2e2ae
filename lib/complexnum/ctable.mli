(** Tolerance-bucketed interning of complex values.

    Decision diagrams are only canonical if edge weights that are "equal up
    to numerical noise" are represented by one value. Following DDSIM's
    complex-number table, this module interns values on a grid of width
    {!Cnum.tolerance}: a lookup snaps the value to a previously stored
    representative when one lies within tolerance (checking the neighboring
    grid buckets to avoid boundary misses) and assigns each representative
    a small integer id that unique tables and compute caches hash on. *)

type t

val create : ?tolerance:float -> unit -> t

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
    value. Raises [Invalid_argument] on an id never issued (or issued
    before the last {!clear}). *)

val re_of_id : t -> int -> float
(** Real part of {!value_of_id}[ t i] as a bare float — same bounds
    contract, no allocation. *)

val im_of_id : t -> int -> float
(** Imaginary counterpart of {!re_of_id}. *)

val re_array : t -> float array
(** The unboxed real plane of the reverse map, indexed by id. Valid for
    every id handed out since the last {!clear}. Ids are allocated in
    per-stripe blocks, so live ids run past {!count} up to the id
    high-water mark. The array itself is replaced when the table grows,
    so capture it only for the duration of one allocation-free kernel. *)

val im_array : t -> float array
(** Imaginary plane, same contract as {!re_array}. *)

val clear : t -> unit
(** Drops every representative except the pre-seeded constants. Any ids
    handed out before [clear] are invalidated. *)

val memory_bytes : t -> int
(** Bytes held by the table: every array at its capacity, the records and
    the boxed representatives, headers included. *)
