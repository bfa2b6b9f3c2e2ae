(** Precision-abstracted flat complex vectors ("the array" in FlatDD).

    Amplitudes are stored interleaved — element [2i] is the real part and
    [2i+1] the imaginary part of amplitude [i] — in one
    [Bigarray.Array1], the closest OCaml equivalent of the paper's aligned
    [double2] arrays. The payload is a raw malloc'd block outside the OCaml
    heap, so it never moves under the GC and the C stripe kernels
    (kernels_stubs.c) take the data pointer directly.

    Two element kinds are provided behind the same signature: [F64]
    (8-byte floats, the default precision, bit-compatible with the old
    float-array [Buf]) and [F32] (4-byte floats, half the bytes streamed
    per gate). Loads always widen to double and all arithmetic happens in
    double precision; in [F32] every store rounds to the nearest float32,
    which is where the documented error accumulates.

    All indices and lengths are in {e amplitudes}, not floats. *)

type arena = {
  lv : int array;
  ch : int array;
  re : float array;
  im : float array;
  ident : int array;
}
(** A raw matrix-DD arena window: slot levels, packed child edges (four
    per slot, [wid lsl 31 lor tgt]), the weight planes, and per level the
    slot of the canonical identity node (levels past the end of [ident]
    have none). [Dd.view] is this type; {!S.dmav_run} walks it and
    applies an identity node as one contiguous stripe. *)

(** The storage/precision signature the dense and DMAV kernels are
    functorized over. The [*2] primitives pass bare floats — they never
    construct a [Cnum.t] — so inner loops built from them allocate
    nothing. *)
module type S = sig
  type elt
  type buffer = (float, elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = private { data : buffer; len : int }
  (** [len] is the number of complex amplitudes; [data] has [2 * len]
      elements. The record is private: construct via [create] /
      [of_array], read [data] directly in kind-specialized kernels. *)

  val kind : (float, elt) Bigarray.kind
  val label : string
  (** ["f64"] or ["f32"] — the token used by [--precision]. *)

  val bytes_per_float : int
  val bytes_per_amp : int

  val buffer_bytes : len:int -> int
  (** Exact bytes of one [len]-amplitude buffer: payload from the element
      kind plus the 64-byte bigarray custom block. *)

  val create : int -> t
  (** [create len] is a zero vector of [len] amplitudes. *)

  val init : int -> (int -> Cnum.t) -> t
  val length : t -> int

  val get : t -> int -> Cnum.t
  val set : t -> int -> Cnum.t -> unit

  val get_re : t -> int -> float
  val get_im : t -> int -> float

  val set2 : t -> int -> float -> float -> unit
  (** [set2 t i re im] stores amplitude [i] from bare parts, allocating
      nothing. *)

  val madd : t -> int -> Cnum.t -> Cnum.t -> unit
  (** [madd v i w x] performs the multiply-accumulate
      [v.(i) <- v.(i) + w·x] without allocating. This is the MAC the cost
      model counts. *)

  val madd2 : t -> int -> wre:float -> wim:float -> xre:float -> xim:float -> unit
  (** [madd] with the operands already unboxed. *)

  val fill_zero : t -> unit
  val fill_zero_range : t -> pos:int -> len:int -> unit
  val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

  val scale_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> Cnum.t -> unit
  (** [dst.(dst_pos+k) <- s · src.(src_pos+k)] for [k < len] — the scalar
      multiplication used by cache hits and by the parallel conversion's
      scalar-multiplication optimization. [src] and [dst] may be the same
      vector only if the ranges do not overlap. *)

  val scale2_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> sre:float -> sim:float -> unit

  val add_into : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
  (** [dst.(dst_pos+k) <- dst.(dst_pos+k) + src.(src_pos+k)] — the buffer
      summation kernel. *)

  val scale_add_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> Cnum.t -> unit
  (** Fused [dst += s · src] over a block. *)

  val scale2_add_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> sre:float -> sim:float -> unit

  (** {2 Flat-phase kernels}

      C stubs (kernels_stubs.c), one call per pool stripe or DMAV task.
      The wrappers check lengths, ranges and qubit indices first. *)

  val dense_single : t -> float array -> target:int -> cmask:int -> lo:int -> hi:int -> unit
  (** Applies the 2×2 gate given as 8 floats (row-major re/im) to the
      controlled amplitude pairs [k ∈ [lo, hi)] of a length-2ⁿ vector:
      pair [k] is the [k]-th pair, in ascending index order, whose low
      index has every bit of [cmask] set, so [hi ≤ 2^(n−1−popcount cmask)].
      [cmask] must not contain the target bit. Each amplitude is one
      16-byte vector (re, im); when {!dense_lanes} is 4, two
      consecutive pairs share one 32-byte vector: one load when bit 0 is
      free (neither the target nor a control is qubit 0), a stripe's odd
      first pair then taking the 16-byte body, and two 16-byte halves
      when it is fixed; an odd last pair takes the 16-byte body. Every lane does the scalar
      reference's operations in its order, so the bytes do not depend
      on the body or the stripe split. *)

  val local_apply :
    t -> float array -> major:int -> minor:int -> paths:int -> lo:int -> hi:int -> unit
  (** The 2×2 or 4×4 array walk: applies, in place, the [2^s × 2^s]
      matrix [m] ([2·4^s] floats, row-major re/im) on the bits [major]
      and [minor] ([s] = 1 when [major] is 0, else 2; one bit each,
      distinct; index bit 1 on [major], bit 0 on [minor], whichever is
      higher) to the groups [k ∈ [lo, hi)]: group [k] is the [2^s]
      amplitudes over the [k]-th index, ascending, whose [major] and
      [minor] bits are 0, so [hi ≤ 2^(n−s)]. Each output starts from +0
      and adds [m(r,c)·x(c)] for each [c], ascending, whose bit
      [r·2^s + c] is set in [paths], the sum stored (rounded, at [F32])
      after every term, as {!dmav_run} sums a row. It serves the local
      leg of a narrow gate, with the higher support bit as [major] and
      [paths] its nonzero entries, and a dense two-qubit gate with all
      16 paths, [major] its [q_hi]. On AVX2
      hosts two groups share a 32-byte vector, built from two 16-byte
      halves when bit 0 is one of the two; the bytes do not depend on
      the body or the split. *)

  val dmav_run :
    arena -> node:int -> v:t -> w:t -> iv:int -> iw:int -> fre:float -> fim:float -> unit
  (** Algorithm 1's Run: [w[iw..] += f · M(node) · v[iv..]] over a
      matrix arena (a gate's [Dd.export]), with [f = fre + i·fim]. The stub recurses once per
      path, except that a canonical identity node is one stripe and a
      pure-replication node ([(e,0,0,e')] or [(0,e,e',0)], [e] and [e']
      on one target) has its shared child walked once for a batch of
      paths. A batch's paths write disjoint rows of [w], so every element
      still gets the per-path recursion's MACs in its order: the bytes
      equal the per-path recursion's at both precisions. *)

  val copy : t -> t
  val sub_vector : t -> pos:int -> len:int -> t

  val norm2 : t -> float
  (** Σ|aᵢ|² — should be 1 for a valid quantum state. *)

  val fidelity : t -> t -> float
  (** |⟨a|b⟩|² between two unit vectors of equal length. *)

  val max_abs_diff : t -> t -> float
  (** L∞ distance between amplitude vectors, the metric differential tests
      compare engines with. *)

  val to_array : t -> Cnum.t array
  val of_array : Cnum.t array -> t

  val memory_bytes : t -> int
  (** Exact bytes held by this vector: kind-sized payload + bigarray
      header + the wrapping record. *)
end

module F64 : S with type elt = Bigarray.float64_elt
module F32 : S with type elt = Bigarray.float32_elt

val dense_lanes : int
(** Lanes of the widest body {!S.dense_single} runs on this CPU, fixed
    when the program loads: 4 on x86-64 when the CPU reports AVX2 (two
    controlled pairs, or two groups of {!S.local_apply}, per 32-byte
    vector), else 2 (one amplitude per 16-byte vector). The bytes are
    the same either way. *)

val bigarray_header_bytes : int
(** Bytes of a [Bigarray.Array1] custom block on 64-bit (header + custom
    ops pointer + caml_ba_array struct), counted by [buffer_bytes]. *)

val demote : F64.t -> F32.t
(** Round every amplitude to float32 — the single precision-loss point
    when the driver hands a converted f64 buffer to an f32 engine. *)

val promote : F32.t -> F64.t
(** Widen an f32 vector back to f64 (exact). *)
