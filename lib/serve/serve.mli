(** The flatdd_serve daemon core: a persistent multi-tenant simulation
    service over a Unix-domain socket.

    One instance owns a shared {!Pool.t}, a {!Sched.t} with [slots]
    runner domains whose deficit-round-robin queue keeps tenants fair,
    and a crash-safe {!Journal.t} of accepted jobs. Every job runs on its
    own fresh DD package and zero-filled buffers, so nothing of one
    tenant's job outlives it. Clients speak {!Protocol} (JSONL over the socket):
    job lines are qcs_sched/v1 manifest lines; results stream back as
    they land, in the exact bytes a local [flatdd_batch] run would have
    produced for the same pinned id and seed.

    Durability contract: a job is durable the moment its [accepted]
    frame is sent — the journal entry (pinned line) survives [kill -9],
    and the next daemon life re-runs every pending entry and replays
    completed ones verbatim on resubmission. *)

type config = {
  socket_path : string;
  slots : int;            (** concurrently running jobs *)
  pool_threads : int;     (** size of the shared data-parallel pool *)
  base_seed : int;        (** seed derivation base for unpinned jobs *)
  journal_path : string option;  (** [None] disables durability *)
  journal_tail : int;     (** completed entries kept for replay; older
                              done entries are compacted away and a
                              resubmit of their id re-runs the pinned
                              line instead of replaying stored bytes *)
  quantum : int;          (** scheduler DRR quantum, in gates per tenant visit *)
  quota : int;            (** per-tenant queued+running bound; 0 = none *)
  warm_capacity : int;    (** ignored: every job starts cold; kept
                              because the serve-stream benchmark sets it *)
  default_config : Config.t;
  strict : bool;          (** reject unknown manifest fields *)
  log : string -> unit;   (** daemon log sink (the binary prints) *)
}

val default_config : config
(** [flatdd.sock], 2 slots, pool 2, seed 1, no journal, 1024-entry
    done-tail, quantum 64, no quota, [warm_capacity] 8, tolerant parsing,
    silent log. *)

type t

val create : config -> t
(** Builds the pool and scheduler and replays the journal:
    pending entries re-enter the scheduler's queue (bypassing quota —
    they were admitted in a previous life) and wait for {!run}; completed
    ones become replayable.
    @raise Journal.Error on a corrupt or mismatched journal file. *)

val run : t -> unit
(** Starts the scheduler, binds the socket and serves until {!stop}; then
    cancels running jobs (they stay pending in the journal), joins the
    scheduler, closes connections and shuts the pool down. Blocking —
    call from the main thread; SIGPIPE is ignored. *)

val stop : t -> unit
(** One atomic store — safe from a signal handler. {!run} returns within
    the accept-poll interval (200 ms). *)

val completed : t -> int
(** Jobs resolved (any outcome) in this daemon life. *)
