(** Batched multi-circuit job scheduling over one shared pool.

    The simulator runs one circuit per call; production batches run
    thousands. This scheduler dispatches many independent simulation jobs
    over [slots] concurrent runners (a {!Taskq.t}) while every job's inner
    data-parallel phases (conversion, DMAV) share a single {!Pool.t} —
    pool admission serializes those, so the DD phases of different jobs
    overlap and the wide phases take the whole pool in turn, instead of
    every job spawning its own domains.

    Job lifecycle:

    {v
      submit --> QUEUED --(slot free, max priority, FIFO within)--> RUNNING
        QUEUED  --cancel----------------------------> CANCELLED (never ran)
        RUNNING --cancel flag, polled per gate------> CANCELLED
        RUNNING --deadline passed, polled per gate--> TIMED_OUT
        RUNNING --exception, retries left--(downgrade config)--> RUNNING
        RUNNING --exception, retries exhausted------> FAILED
        RUNNING --final state reached---------------> COMPLETED
    v}

    Deadlines are wall-clock budgets for the {e running} phase of a job
    (all attempts included), enforced cooperatively through
    [Driver.run ~cancel] — a deadline or cancellation lands within
    one gate application and never poisons the shared pool.

    Instrumented as [sched.{submitted,completed,failed,timed_out,
    cancelled,retries}] and spans [sched.{queue_wait,run}]. *)

type job = {
  id : string;                (** unique within one scheduler *)
  tenant : string;            (** accounting key for the serve layer; "" = none *)
  circuit : Circuit.t;
  config : Config.t;
  priority : int;             (** higher dispatches first; default 0 *)
  deadline_s : float;         (** run-phase wall-clock budget; <= 0 = none *)
  max_retries : int;          (** extra attempts after a failure *)
}

val job :
  ?config:Config.t ->
  ?tenant:string ->
  ?priority:int ->
  ?deadline_s:float ->
  ?max_retries:int ->
  id:string ->
  Circuit.t ->
  job
(** Smart constructor: [Config.default], no tenant, priority 0, no
    deadline, no retries unless overridden. *)

type outcome =
  | Completed of Driver.result
  | Failed of exn        (** last attempt's exception, retries exhausted *)
  | Timed_out
  | Cancelled

type job_result = {
  job : job;
  outcome : outcome;
  queue_wait_s : float;  (** submit → first dispatch (or cancellation) *)
  run_s : float;         (** wall clock across all attempts *)
  attempts : int;        (** attempts started; 0 if cancelled while queued *)
  downgraded : bool;     (** at least one retry ran a downgraded config *)
}

val outcome_name : outcome -> string
(** ["completed" | "failed" | "timed_out" | "cancelled"]. *)

type runner = cancel:(unit -> bool) -> pool:Pool.t -> job -> Driver.result
(** How one attempt executes; the job carries the attempt's config (a
    retry passes the downgraded config in [job.config]). The default is
    [Driver.run]; tests inject failing runners to exercise retry
    paths, and the serve daemon injects a warm-state runner keyed by
    [job.tenant]. *)

val default_downgrade : Config.t -> Config.t
(** The retry downgrade: force the flat-array path ([Convert_at (-1)]),
    the predictable-memory fallback for jobs whose DD phase blew up. *)

type t

val create :
  ?downgrade:(Config.t -> Config.t) ->
  ?runner:runner ->
  ?on_result:(job_result -> unit) ->
  ?paused:bool ->
  pool:Pool.t ->
  slots:int ->
  unit ->
  t
(** [create ~pool ~slots ()] spawns [slots] runner domains sharing
    [pool]. [on_result] streams each result as it lands (called from a
    runner domain; keep it cheap and thread-safe). [~paused:true] holds
    dispatch until {!start} so a whole batch can be queued first. The
    pool is borrowed, never shut down. *)

val start : t -> unit

val submit : t -> job -> unit
(** @raise Invalid_argument on a duplicate id or after {!shutdown}. *)

val cancel : t -> string -> bool
(** [cancel t id]: a queued job resolves to [Cancelled] immediately and
    never runs; a running job's flag is raised and it resolves to
    [Cancelled] within one gate. [false] when [id] is unknown or the job
    already resolved. *)

val release : t -> string -> unit
(** [release t id] forgets a resolved job: its tracked entry, and with it
    the result and final state, is dropped, so a long-lived scheduler
    (the serve daemon) does not grow with every job it has run. A
    released job no longer appears in {!drain} and its id may be
    submitted again. No-op for an unknown or still unresolved id. *)

val drain : t -> job_result list
(** Starts dispatch if paused, waits for every submitted job to resolve
    and returns results in {e submission} order — deterministic output
    for identical manifests regardless of slot interleaving. *)

val interrupt : t -> unit
(** Trips every job's cancel poll at once: running jobs resolve as
    [Cancelled] within one gate, queued ones resolve as [Cancelled]
    without starting. One atomic store — safe to call from a signal
    handler; {!drain} afterwards still returns every result, so a batch
    CLI interrupted by SIGINT/SIGTERM can write the outcomes it has. *)

val interrupted : t -> bool

val shutdown : t -> unit
(** Waits for running jobs, resolves still-queued ones as [Cancelled],
    joins the runner domains. The shared pool is left alone. *)

val run_jobs :
  ?downgrade:(Config.t -> Config.t) ->
  ?runner:runner ->
  ?on_result:(job_result -> unit) ->
  pool:Pool.t ->
  slots:int ->
  job list ->
  job_result list
(** One-shot batch: queue every job while paused (so priorities are
    respected exactly), dispatch, drain, shut down. *)
