(** A fixed-size domain (OS thread) pool with fork-join semantics.

    The paper's engine parallelizes three different workloads — DMAV task
    lists, DD-to-array conversion, and buffer summation — over a fixed
    number of worker threads. This module is the substrate: a pool of
    [size - 1] worker domains plus the calling domain, exposing a barrier-
    style [run] (every worker index executes a function once) and a
    dynamically load-balanced [parallel_for].

    Pools are cheap to use repeatedly but creating one spawns domains, so
    harness code keeps a pool alive across a whole experiment. Between
    jobs a worker spins for a short, fixed window (about 20 us) on the
    job counter and then parks on a condition variable; the caller waits
    for the join the same way. Back-to-back jobs, like a flat phase's
    gates, are handed over without a condvar round trip, and an idle
    pool burns no CPU after the window. A pool of size 1 never
    spawns domains and runs everything inline, which keeps single-threaded
    baselines free of synchronization overhead.

    A pool may be shared by concurrent callers (the batch scheduler runs
    many simulations over one pool): fork-join jobs are admitted one at a
    time under an internal admission lock, so concurrent [run] /
    [parallel_for] calls serialize against each other instead of
    corrupting the pool. The accumulated admission wait is exported as the
    [pool.admission_wait] span. Whole jobs are dispatched one per slot by
    the batch scheduler ([Sched], in [lib/sched]), which owns its slot
    domains and runs each job's parallel phases over one shared pool. *)

type t

val create : int -> t
(** [create size] builds a pool with total parallelism [size >= 1]
    ([size - 1] worker domains are spawned). The size is clamped to
    [Domain.recommended_domain_count ()] workers only by the caller's
    choice — oversubscription is allowed for scalability experiments. *)

val size : t -> int
(** Total parallelism, including the calling domain. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f w] once for every worker index
    [w = 0 .. size - 1], in parallel, and returns when all are done.
    [f 0] runs on the calling domain. Exceptions raised by any worker are
    re-raised on the caller after the join. Safe to call from several
    domains at once: whole jobs serialize on the admission lock. *)

val parallel_for : ?chunk:int -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] runs [f i] for each [lo <= i < hi],
    distributing chunks of iterations over the pool with a shared atomic
    cursor. [chunk] defaults to a size that yields roughly 8 chunks per
    worker. *)

val parallel_for_ranges :
  ?chunk:int -> t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Like {!parallel_for} but hands out half-open ranges [f lo' hi'] so hot
    loops can run without per-index closure calls. *)

val shutdown : t -> unit
(** Terminates the worker domains. The pool must not be used afterwards.
    Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool size f] creates a pool, applies [f], and always shuts the
    pool down. *)
