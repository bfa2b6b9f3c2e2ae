(* The serve core: one daemon instance — listener, per-connection reader
   threads, tenant-fair admission, crash-safe journal, streamed
   delivery.

   Concurrency shape: one mutex ([t.mutex]) guards every piece of shared
   daemon state (journal, owner table, connections). Readers and
   scheduler runner domains both funnel through it; jobs wait only in the
   scheduler, whose DRR queue over tenant lanes decides the order.
   Socket I/O never happens under it: [send] only enqueues the rendered
   frame under the connection's own mutex (lock order: t.mutex →
   conn.mutex, never the other way) and each connection's writer thread
   drains the queue with no locks held — a client that stops reading
   backs up its own queue, never the daemon's admission or delivery.

   Determinism: jobs execute with journal-pinned ids and seeds, each on
   its own fresh DD package and buffers, so result bytes never depend on
   dispatch order and nothing of one tenant's job outlives it. The
   canonical timings-off result line is stored in the journal, so a
   resubmitted or replayed id returns byte-identical text in any daemon
   life. *)

let g_uptime = Obs.gauge "serve.uptime_s"
let c_connections = Obs.counter "serve.connections"
let c_results = Obs.counter "serve.results"
let c_replays = Obs.counter "serve.replays"
let c_admitted = Obs.counter "serve.admitted"
let c_rejected = Obs.counter "serve.rejected"

type config = {
  socket_path : string;
  slots : int;            (* concurrently running jobs *)
  pool_threads : int;     (* shared data-parallel pool size *)
  base_seed : int;
  journal_path : string option;
  journal_tail : int;     (* completed journal entries retained *)
  quantum : int;          (* DRR quantum, in gates *)
  quota : int;            (* per-tenant queued+running bound; 0 = none *)
  warm_capacity : int;    (* ignored: every job starts cold *)
  default_config : Config.t;
  strict : bool;          (* reject unknown manifest fields *)
  log : string -> unit;
}

let default_config =
  { socket_path = "flatdd.sock";
    slots = 2;
    pool_threads = 2;
    base_seed = 1;
    journal_path = None;
    journal_tail = 1024;
    quantum = 64;
    quota = 0;
    warm_capacity = 8;
    default_config = Config.default;
    strict = false;
    log = ignore }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_oc : out_channel;
  c_mutex : Mutex.t;
  c_cond : Condition.t;       (* wakes the writer: queue grew or conn died *)
  c_outq : string Queue.t;    (* rendered frames awaiting the writer thread *)
  mutable c_alive : bool;
  mutable c_timings : bool;   (* include *_s fields in delivered lines *)
  mutable c_metrics : bool;   (* stream a metrics delta after each result *)
  mutable c_tenant : string option; (* default tenant for bare job lines *)
  mutable c_outstanding : int; (* accepted, result not yet delivered *)
  mutable c_delivered : int;
  mutable c_ended : bool;     (* saw the end op; Bye when outstanding = 0 *)
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  pool : Pool.t;
  journal : Journal.t;
  mutable sched : Sched.t option; (* set once in [create] *)
  owners : (string, conn) Hashtbl.t;    (* job id → owning connection *)
  mutable completed : int;
  mutable conns : conn list;
  mutable next_conn : int;
  mutable last_snap : Obs.Metrics.snapshot;
  started_at : float;
  stop : bool Atomic.t;
}

let locked t f = Mutex.protect t.mutex f

let sched t = Option.get t.sched

let logf t fmt = Printf.ksprintf t.cfg.log fmt

let touch_uptime t =
  Obs.set_gauge g_uptime (int_of_float (Unix.gettimeofday () -. t.started_at))

(* --- connection writes ------------------------------------------------- *)

(* Flip a connection dead exactly once. The flipper closes the fd and
   wakes the writer so it can exit; everyone else observes
   [c_alive = false] and stands down. *)
let kill conn =
  let was =
    Mutex.protect conn.c_mutex (fun () ->
        let was = conn.c_alive in
        conn.c_alive <- false;
        Condition.broadcast conn.c_cond;
        was)
  in
  if was then (try Unix.close conn.c_fd with Unix.Unix_error _ -> ())

(* Enqueue a frame for the connection's writer thread. Never touches the
   socket: callers hold t.mutex, and a client that stops reading (full
   socket buffer, blocked flush) must not be able to stall admission,
   delivery or completion for every other tenant. The frame is rendered
   before the lock is taken, so a raising renderer cannot leave it held. *)
let send conn frame =
  let line = Protocol.render_frame frame in
  Mutex.protect conn.c_mutex (fun () ->
      if conn.c_alive then begin
        Queue.push line conn.c_outq;
        Condition.signal conn.c_cond
      end)

(* Per-connection writer: drains the queue with no locks held. A write
   failure (client went away mid-stream) just kills the connection; its
   jobs keep running and their results stay readable through the
   journal. *)
let writer conn =
  (* The queued frames, newline-terminated, or None once the connection
     is dead. *)
  let take () =
    Mutex.protect conn.c_mutex (fun () ->
        while conn.c_alive && Queue.is_empty conn.c_outq do
          Condition.wait conn.c_cond conn.c_mutex
        done;
        if not conn.c_alive then begin
          Queue.clear conn.c_outq;
          None
        end
        else begin
          let b = Buffer.create 256 in
          while not (Queue.is_empty conn.c_outq) do
            Buffer.add_string b (Queue.pop conn.c_outq);
            Buffer.add_char b '\n'
          done;
          Some (Buffer.contents b)
        end)
  in
  let rec loop () =
    match take () with
    | None -> ()
    | Some text ->
      (try
         output_string conn.c_oc text;
         flush conn.c_oc
       with Sys_error _ | Unix.Unix_error _ -> kill conn);
      loop ()
  in
  loop ()

(* --- admission --------------------------------------------------------- *)

let terminal (outcome : Sched.outcome) =
  match outcome with
  | Sched.Completed _ | Sched.Failed _ | Sched.Timed_out -> true
  | Sched.Cancelled -> false (* daemon stopping: stays Pending, re-runs *)

let bare_id kvs =
  match List.assoc_opt "id" kvs with
  | Some (Obs.Metrics.Jstr s) -> Some s
  | _ -> None

let bare_seed kvs =
  match List.assoc_opt "seed" kvs with
  | Some (Obs.Metrics.Jnum s) -> int_of_string_opt s
  | _ -> None

let admit t conn line =
  match Obs.Metrics.parse_json line with
  | exception Obs.Metrics.Parse_error m ->
    send conn (Protocol.Rejected { id = None; reason = "bad job line: " ^ m })
  | Obs.Metrics.Jobj kvs ->
    locked t (fun () ->
        (* Pin identity first: an id/seed the client did not choose is
           derived from the journal's monotonic index, then baked into
           the stored line so a restart replays it bit-for-bit. *)
        let index =
          match bare_id kvs, bare_seed kvs with
          | Some _, Some _ -> 0 (* fully pinned by the client *)
          | _ -> Journal.take_index t.journal
        in
        let id =
          match bare_id kvs with
          | Some id -> id
          | None -> Printf.sprintf "job-%d" index
        in
        (* The pinned rendering of THIS submission under a given seed:
           stored on a fresh accept, and compared against the journal's
           stored line on an id hit — replay and adoption are for the
           same job only, never for whoever reuses the id next. *)
        let pinned_with seed =
          let kvs = Protocol.set_field kvs "id" (Obs.Metrics.Jstr id) in
          let kvs =
            Protocol.set_field kvs "seed" (Obs.Metrics.Jnum (string_of_int seed))
          in
          let kvs =
            match List.assoc_opt "tenant" kvs, conn.c_tenant with
            | None, Some tenant ->
              Protocol.set_field kvs "tenant" (Obs.Metrics.Jstr tenant)
            | _ -> kvs
          in
          Protocol.render_obj kvs
        in
        match Journal.find t.journal id with
        | Some e
          when not
                 (String.equal
                    (pinned_with (Option.value (bare_seed kvs) ~default:e.Journal.e_seed))
                    e.Journal.e_line) ->
          (* Same id, different job line (payload, seed or tenant).
             Auto-generated ids collide exactly like this — two un-id'd
             manifests both pin job-0 — and replaying the stored result
             would hand this submitter another job's bytes. *)
          send conn
            (Protocol.Rejected
               { id = Some id;
                 reason =
                   Printf.sprintf
                     "id %S is already bound to a different job line; give jobs \
                      explicit distinct ids" id })
        | Some { Journal.e_state = Journal.Done result; e_seed; _ } ->
          (* Finished in this or a previous daemon life: replay the
             stored canonical line — exactly-once results over
             at-least-once submission. *)
          Obs.incr c_replays;
          send conn (Protocol.Accepted { id; seed = e_seed; replay = true });
          send conn (Protocol.Result { id; line = result });
          conn.c_delivered <- conn.c_delivered + 1
        | Some { Journal.e_state = Journal.Pending; e_seed; _ } ->
          (* Accepted earlier (possibly by a dead connection or a
             previous life): adopt it — this connection now receives the
             result when it lands. The previous owner, if any, is
             released from waiting on it. *)
          (match Hashtbl.find_opt t.owners id with
           | Some owner when owner == conn -> ()
           | prev ->
             (match prev with
              | Some owner ->
                owner.c_outstanding <- owner.c_outstanding - 1;
                if owner.c_ended && owner.c_outstanding = 0 then
                  send owner (Protocol.Bye { results = owner.c_delivered })
              | None -> ());
             Hashtbl.replace t.owners id conn;
             conn.c_outstanding <- conn.c_outstanding + 1);
          send conn (Protocol.Accepted { id; seed = e_seed; replay = false })
        | None ->
          let seed =
            match bare_seed kvs with
            | Some s -> s
            | None -> Rng.derive t.cfg.base_seed index
          in
          let pinned = pinned_with seed in
          (match
             Manifest.parse_line ~default_config:t.cfg.default_config
               ~base_seed:t.cfg.base_seed ~strict:t.cfg.strict ~index pinned
           with
           | exception Manifest.Error m ->
             send conn (Protocol.Rejected { id = Some id; reason = m })
           | { Manifest.job; _ } ->
             let tenant = job.Sched.tenant in
             let load = Sched.load (sched t) ~tenant in
             if t.cfg.quota > 0 && load >= t.cfg.quota then begin
               Obs.incr c_rejected;
               send conn
                 (Protocol.Rejected
                    { id = Some id;
                      reason =
                        Printf.sprintf
                          "tenant %S over quota (%d jobs queued or running, quota %d)"
                          tenant load t.cfg.quota })
             end
             else begin
               ignore (Journal.accept t.journal ~id ~tenant ~seed ~line:pinned);
               Hashtbl.replace t.owners id conn;
               conn.c_outstanding <- conn.c_outstanding + 1;
               send conn (Protocol.Accepted { id; seed; replay = false });
               Obs.incr c_admitted;
               (* A stopping daemon's scheduler takes no more jobs; this
                  one stays pending in the journal for the next life. *)
               try Sched.submit (sched t) job
               with Invalid_argument _ when Atomic.get t.stop -> ()
             end))
  | _ -> send conn (Protocol.Rejected { id = None; reason = "job line is not a JSON object" })

(* --- execution --------------------------------------------------------- *)

(* Scheduler completion callback (runs on a runner domain). Renders the
   result lines, journals terminal outcomes, streams to the owning connection and drops the scheduler's tracked
   entry. *)
let deliver t (jr : Sched.job_result) =
  let id = jr.Sched.job.Sched.id in
  locked t (fun () ->
      let seed =
        match Journal.find t.journal id with
        | Some e -> e.Journal.e_seed
        | None -> 0 (* unreachable: every submitted job was journaled *)
      in
      let canonical = Manifest.result_line ~timings:false ~seed jr in
      let timed = Manifest.result_line ~timings:true ~seed jr in
      if terminal jr.Sched.outcome && Journal.find t.journal id <> None then
        Journal.complete t.journal ~id ~result:canonical;
      t.completed <- t.completed + 1;
      Obs.incr c_results;
      (match Hashtbl.find_opt t.owners id with
       | None -> ()
       | Some conn ->
         Hashtbl.remove t.owners id;
         send conn
           (Protocol.Result { id; line = (if conn.c_timings then timed else canonical) });
         conn.c_outstanding <- conn.c_outstanding - 1;
         conn.c_delivered <- conn.c_delivered + 1;
         if conn.c_metrics then begin
           (* A per-result delta snapshot: diff against the previous
              emission instead of resetting, so process-lifetime counters
              survive any number of per-job emissions. *)
           touch_uptime t;
           let snap = Obs.Metrics.snapshot () in
           let delta = Obs.Metrics.diff t.last_snap snap in
           t.last_snap <- snap;
           send conn (Protocol.Metrics { body = Obs.Metrics.to_json delta })
         end;
         if conn.c_ended && conn.c_outstanding = 0 then
           send conn (Protocol.Bye { results = conn.c_delivered }));
      (* Journaled and sent: the scheduler's copy of the result (final
         state included) is dead weight for the rest of the daemon's life;
         exactly-once replays come from the journal. *)
      Sched.release (sched t) id)

(* --- connection reader ------------------------------------------------- *)

let handle_request t conn = function
  | Protocol.Hello_req { timings; metrics; tenant } ->
    conn.c_timings <- timings;
    conn.c_metrics <- metrics;
    conn.c_tenant <- tenant
  | Protocol.Job line -> admit t conn line
  | Protocol.Metrics_req ->
    (* Full re-entrant snapshot: read-only, never resets. *)
    touch_uptime t;
    send conn (Protocol.Metrics { body = Obs.Metrics.to_json (Obs.Metrics.snapshot ()) })
  | Protocol.Ping -> send conn Protocol.Pong
  | Protocol.End_req ->
    locked t (fun () ->
        conn.c_ended <- true;
        if conn.c_outstanding = 0 then
          send conn (Protocol.Bye { results = conn.c_delivered }))

let reader t conn =
  let ic = Unix.in_channel_of_descr conn.c_fd in
  send conn (Protocol.Hello { server = "flatdd_serve " ^ Protocol.schema });
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
      (match Protocol.parse_request line with
       | exception Protocol.Error m ->
         send conn (Protocol.Rejected { id = None; reason = m })
       | req -> handle_request t conn req);
      loop ()
  in
  loop ();
  kill conn;
  logf t "conn %d closed (%d results delivered)" conn.c_id conn.c_delivered

(* --- lifecycle --------------------------------------------------------- *)

let create cfg =
  let pool = Pool.create cfg.pool_threads in
  let journal =
    Journal.create ?path:cfg.journal_path ~done_tail:cfg.journal_tail
      ~base_seed:cfg.base_seed ()
  in
  let t =
    { cfg;
      mutex = Mutex.create ();
      pool;
      journal;
      sched = None;
      owners = Hashtbl.create 64;
      completed = 0;
      conns = [];
      next_conn = 0;
      last_snap = Obs.Metrics.snapshot ();
      started_at = Unix.gettimeofday ();
      stop = Atomic.make false }
  in
  let sched =
    Sched.create ~on_result:(deliver t) ~paused:true
      ~quantum:cfg.quantum ~pool ~slots:cfg.slots ()
  in
  t.sched <- Some sched;
  (* Crash recovery: every Pending journal entry re-enters the scheduler
     (quota was already charged in the life that accepted it) and re-runs
     from its pinned line — same id, same seed, same bytes. It waits for
     [run], which starts the scheduler. *)
  let restored = Journal.pending journal in
  List.iter
    (fun (e : Journal.entry) ->
       match
         Manifest.parse_line ~default_config:cfg.default_config ~base_seed:cfg.base_seed
           ~strict:false ~index:0 e.Journal.e_line
       with
       | { Manifest.job; _ } ->
         Obs.incr c_admitted;
         Sched.submit sched job
       | exception Manifest.Error m ->
         logf t "journal entry %s no longer parses, dropping: %s" e.Journal.e_id m)
    restored;
  if restored <> [] then
    logf t "restored %d pending job(s) from %s" (List.length restored)
      (Option.value cfg.journal_path ~default:"<memory>");
  t

let stop t = Atomic.set t.stop true
let completed t = locked t (fun () -> t.completed)

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Sched.start (sched t);
  if Sys.file_exists t.cfg.socket_path then Sys.remove t.cfg.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX t.cfg.socket_path);
  Unix.listen sock 64;
  logf t "listening on %s (%d slots, pool %d)" t.cfg.socket_path t.cfg.slots
    t.cfg.pool_threads;
  (* Accept loop with a short select timeout so [stop] — one atomic
     store, callable from a signal handler — is observed promptly without
     closing the listener out from under a blocked accept. *)
  while not (Atomic.get t.stop) do
    match Unix.select [ sock ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ ->
      (match Unix.accept sock with
       | exception Unix.Unix_error _ -> ()
       | fd, _ ->
         Obs.incr c_connections;
         let conn =
           locked t (fun () ->
               let c =
                 { c_id = t.next_conn;
                   c_fd = fd;
                   c_oc = Unix.out_channel_of_descr fd;
                   c_mutex = Mutex.create ();
                   c_cond = Condition.create ();
                   c_outq = Queue.create ();
                   c_alive = true;
                   c_timings = true;
                   c_metrics = false;
                   c_tenant = None;
                   c_outstanding = 0;
                   c_delivered = 0;
                   c_ended = false }
               in
               t.next_conn <- t.next_conn + 1;
               t.conns <- c :: t.conns;
               c)
         in
         ignore (Thread.create (fun () -> writer conn) ());
         ignore (Thread.create (fun () -> reader t conn) ()))
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  (* Running jobs resolve as Cancelled within one gate and stay Pending
     in the journal; the next life re-runs them. *)
  Sched.interrupt (sched t);
  Sched.shutdown (sched t);
  let conns = locked t (fun () -> t.conns) in
  List.iter kill conns;
  Pool.shutdown t.pool;
  touch_uptime t; (* final lifetime reading for a shutdown snapshot *)
  logf t "stopped after %d completed job(s)" (completed t)
