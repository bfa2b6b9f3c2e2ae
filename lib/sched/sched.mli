(** Batched multi-circuit job scheduling over one shared pool.

    The simulator runs one circuit per call; production batches run
    thousands. This scheduler dispatches many independent simulation jobs
    over [slots] runner domains of its own, which take jobs from one
    queue, while every job's inner data-parallel phases (conversion,
    DMAV) share a single {!Pool.t} — pool admission serializes those, so
    the DD phases of different jobs overlap and the wide phases take the
    whole pool in turn, instead of every job spawning its own domains.

    The queue is deficit round robin over tenant lanes. Each tenant
    ([job.tenant]; jobs without one share the [""] lane) has a lane
    ordered by priority descending, then submission order. Backlogged
    lanes take turns in a FIFO: each visit adds [quantum] credit, the
    lane's head dispatches once its cost (gate count, at least 1) fits,
    and the lane goes to the back. A lane that empties forfeits its
    credit; one with no job queued or running is forgotten. With one
    tenant this is plain priority order, FIFO within a priority.

    Job lifecycle:

    {v
      submit --> QUEUED --(slot free, DRR pick of its lane's head)--> RUNNING
        QUEUED  --interrupt, picked up by a slot----> CANCELLED (never ran)
        QUEUED  --shutdown--------------------------> CANCELLED (never ran)
        RUNNING --interrupt, polled per gate--------> CANCELLED
        RUNNING --deadline passed, polled per gate--> TIMED_OUT
        RUNNING --exception, retries left--(downgrade config)--> RUNNING
        RUNNING --exception, retries exhausted------> FAILED
        RUNNING --final state reached---------------> COMPLETED
    v}

    Deadlines are wall-clock budgets for the {e running} phase of a job
    (all attempts included), enforced cooperatively through
    [Driver.run ~cancel] — a deadline or interrupt lands within one gate
    application and never poisons the shared pool.

    Instrumented as [sched.{submitted,completed,failed,timed_out,
    cancelled,retries}], gauge [sched.queue_depth] and spans
    [sched.{queue_wait,run}]. *)

type job = {
  id : string;                (** unique within one scheduler *)
  tenant : string;            (** DRR lane; "" = none *)
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
  queue_wait_s : float;  (** submit → dispatch; 0 if dropped by {!shutdown} *)
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
  ?quantum:int ->
  pool:Pool.t ->
  slots:int ->
  unit ->
  t
(** [create ~pool ~slots ()] spawns [slots] runner domains sharing
    [pool]. [on_result] streams each result as it lands (called from a
    runner domain with no scheduler lock held, so it may call {!submit}
    and {!release}; keep it cheap and thread-safe). [~paused:true] holds
    dispatch until {!start} so a whole batch can be queued first.
    [quantum] is the DRR credit per lane visit, in gates (default 64,
    about one small circuit). The pool is borrowed, never shut down.
    @raise Invalid_argument if [slots < 1]. *)

val start : t -> unit
(** Releases a scheduler created with [~paused:true]. Idempotent. *)

val submit : t -> job -> unit
(** @raise Invalid_argument on a duplicate id or after {!shutdown}; a
    rejected job is not tracked. *)

val load : t -> tenant:string -> int
(** The tenant's queued plus running jobs. A job stops counting before
    [on_result] sees it, so a closed-loop client at a quota may submit
    its next job from its result. *)

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
(** Waits for running jobs, drops still-queued ones (they never run;
    {!drain} reports them [Cancelled] with 0 attempts, and [on_result]
    never sees them), joins the runner domains. Idempotent. The shared
    pool is left alone. *)

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
