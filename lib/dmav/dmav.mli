(** Parallel DD-matrix × array-vector multiplication (paper §3.2).

    [apply] computes [W ← M·V] for an [n]-qubit gate matrix DD [M] and a
    flat state vector [V], over the threads of a pool ([t] is rounded down
    to a power of two, the shape both Assign functions require).

    Two kernels are provided. The row-space kernel (Algorithm 1) assigns
    thread [u] every (row-block [u], column-block [j]) sub-matrix task, so
    threads write disjoint [h]-sized slices of [W] ([h = 2ⁿ/t]). The
    column-space caching kernel (Algorithm 2) assigns thread [u] the tasks
    of column block [u]; since all of a thread's tasks share the same
    [V] slice, a repeated sub-matrix node means the new output block is a
    scalar multiple of an earlier one, served from a per-thread cache with
    one SIMD-style block scale. Threads write [h]-blocks of shared partial
    output buffers (threads with disjoint block sets share a buffer), and
    the buffers are summed into [W] in parallel at the end.

    [apply] picks between the kernels per gate with the §3.2.3 cost
    model. This module is {!Dmav_generic.Make} at [Storage.F64] (each
    task's Run recursion is one C stub call); every instance of the
    functor counts its gates in the same [dmav.*] metrics. *)

type workspace = Buf.t Dmav_generic.workspace
(** A free list of reusable 2ⁿ-sized buffers: the cached kernel's partial
    outputs, and the flat engine's scratch vector, so repeated
    applications (and batched runs sharing a workspace) do not reallocate
    2ⁿ-sized vectors per gate or per job. *)

val workspace : n:int -> workspace
val workspace_n : workspace -> int

val take : workspace -> Buf.t
(** Pops a free buffer, or allocates a fresh zero one. A popped buffer's
    contents are unspecified; every kernel here zeroes what it reads. *)

val give : workspace -> Buf.t -> unit
(** Returns a buffer to the free list (ignored if the size mismatches). *)

val free_buffers : workspace -> int
(** Buffers currently on the free list (for tests and accounting). *)

val scrub_workspace : workspace -> int
(** Zeroes every buffer on the free list and returns how many were
    scrubbed. Functionally a no-op (kernels never read stale contents);
    it exists so a multi-tenant server can guarantee one tenant's
    amplitudes never sit in a buffer handed to the next. *)

type exec_stats = Dmav_generic.exec_stats = {
  used_cache : bool;
  decision : Cost.decision;
  cache_hits : int;     (** realized hits (= modeled H when cached) *)
  buffers_used : int;
}

type task = Dmav_generic.task = { node : Dd.mnode; start : int; weight : Cnum.t }
(** A border-level multiplication task: the sub-matrix node with the full
    weight product folded in, plus the sub-vector start index — I_V for
    the row-space kernel, I_P for the column-space one. *)

val assign_rows : Dd.package -> n:int -> t:int -> Dd.medge -> task list array
(** Algorithm 1's Assign: row-major traversal of the top log₂ t levels. *)

val assign_cols : Dd.package -> n:int -> t:int -> Dd.medge -> task list array
(** Algorithm 2's AssignCache: column-major traversal. *)

val apply :
  ?workspace:workspace ->
  Dd.package ->
  pool:Pool.t ->
  simd_width:int ->
  n:int ->
  Dd.medge ->
  v:Buf.t ->
  w:Buf.t ->
  exec_stats
(** [apply ~pool ~simd_width ~n m ~v ~w] overwrites [w] with [m·v],
    choosing the kernel by modeled cost. [v] and [w] must be distinct
    buffers of length 2ⁿ. *)

val apply_decided :
  ?workspace:workspace ->
  Dd.package ->
  pool:Pool.t ->
  n:int ->
  Cost.decision ->
  Dd.medge ->
  v:Buf.t ->
  w:Buf.t ->
  exec_stats
(** {!apply} with a precomputed kernel decision, so a caller that already
    ran the cost model (the driver's per-gate dispatch) does not pay for
    it twice. *)

val apply_nocache :
  Dd.package -> pool:Pool.t -> n:int -> Dd.medge -> v:Buf.t -> w:Buf.t -> unit
(** Algorithm 1, unconditionally. *)

val apply_cache :
  ?workspace:workspace ->
  Dd.package ->
  pool:Pool.t ->
  n:int ->
  Dd.medge ->
  v:Buf.t ->
  w:Buf.t ->
  int * int
(** Algorithm 2, unconditionally; returns (cache hits, buffers used). *)
