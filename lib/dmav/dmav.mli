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
    model. Every entry point runs a gate compiled by {!Flat_gate}: the
    gate's own arena, its task lists and its cache plan, fixed before
    the kernel starts. This module is {!Dmav_generic.Make} at
    [Storage.F64] (each Run call is one C stub call,
    {!Storage.S.dmav_run}, which walks the sub-matrix under a
    pure-replication node once per batch of paths instead of once per
    path, with unchanged bytes); every instance of the functor counts
    its gates in the same [dmav.*] metrics. *)

type workspace = Buf.t Dmav_generic.workspace
(** A free list of reusable 2ⁿ-sized buffers: the cached kernel's partial
    outputs, and the flat engine's scratch vector, so repeated
    applications do not reallocate 2ⁿ-sized vectors per gate. *)

val workspace : n:int -> workspace

val take : workspace -> Buf.t
(** Pops a free buffer, or allocates a fresh zero one. A popped buffer's
    contents are unspecified; every kernel here zeroes what it reads. *)

val give : workspace -> Buf.t -> unit
(** Returns a buffer to the free list (ignored if the size mismatches). *)

val apply :
  ?workspace:workspace ->
  Dd.package ->
  pool:Pool.t ->
  n:int ->
  Dd.medge ->
  v:Buf.t ->
  w:Buf.t ->
  Flat_gate.t
(** [apply ~pool ~n m ~v ~w] overwrites [w] with [m·v],
    choosing the kernel by modeled cost ({!Flat_gate.compile} with no
    op), and returns the compiled gate it ran: its [dispatch] holds the
    pick and its modeled costs, its [Dmav] program whether it cached
    and its hits. [v] and [w] must be distinct buffers of length 2ⁿ.
    Always one of the paper's two DMAV kernels: a gate given by its DD
    never takes the local leg, which only a narrow gate
    ({!Flat_gate.of_local}) runs. *)

val run : ?workspace:workspace -> pool:Pool.t -> Flat_gate.program -> v:Buf.t -> w:Buf.t -> unit
(** Runs a compiled kernel program, [w ← M·v]. Worker [k] of [pool]
    takes the program's task lists [k], [k + size], ..., so any pool
    size gives the same bytes; a size-1 pool runs every list itself. *)

val exec : ?workspace:workspace -> pool:Pool.t -> Flat_gate.t -> v:Buf.t -> w:Buf.t -> unit
(** Runs a compiled gate on the kernel it was compiled for, reading
    nothing of the package it came from. A [Dmav] gate is {!run}
    ([w ← M·v]) with the [dmav.apply] span and the modeled-MAC
    counters. A [Local] gate, a narrow one, runs in place on [v]
    ({!Storage.S.local_apply}, cut into stripes like the dense
    kernel's), counted and timed as the uncached kernel it stands in
    for ([dmav.kernel.uncached], the modeled-MAC counters,
    [dmav.apply]). A [Dense] gate runs the dense direct kernel in place
    on [v]. Only a [Dmav] gate writes [w]. *)

val apply_nocache :
  Dd.package -> pool:Pool.t -> n:int -> Dd.medge -> v:Buf.t -> w:Buf.t -> unit
(** Algorithm 1, unconditionally: {!Flat_gate.program} then {!run}. *)

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
