(* The batch scheduler: [slots] runner domains pull jobs from one queue
   while every job's inner data-parallel phases share one pool. The queue
   is deficit round robin (Shreedhar & Varghese, SIGCOMM '95) over tenant
   lanes; within a lane, max priority first, FIFO within a priority. On
   top of dispatch it layers job identity, deadlines, interrupts and
   retry-with-downgrade, and keeps the per-job accounting the batch CLI
   serializes.

   Deadline enforcement needs no watchdog thread: the cancellation poll
   handed to the simulator compares the wall clock against the job's
   absolute deadline at every gate boundary, so a deadline fires within
   one gate of its expiry. A stopped run is [Cancelled] if the scheduler
   was interrupted, else [Timed_out]. *)

let c_submitted = Obs.counter "sched.submitted"
let c_completed = Obs.counter "sched.completed"
let c_failed = Obs.counter "sched.failed"
let c_timed_out = Obs.counter "sched.timed_out"
let c_cancelled = Obs.counter "sched.cancelled"
let c_retries = Obs.counter "sched.retries"
let g_depth = Obs.gauge "sched.queue_depth"
let s_queue_wait = Obs.span "sched.queue_wait"
let s_run = Obs.span "sched.run"

type job = {
  id : string;
  tenant : string;
  circuit : Circuit.t;
  config : Config.t;
  priority : int;
  deadline_s : float;
  max_retries : int;
}

let job ?(config = Config.default) ?(tenant = "") ?(priority = 0) ?(deadline_s = 0.0)
    ?(max_retries = 0) ~id circuit =
  { id; tenant; circuit; config; priority; deadline_s; max_retries }

type outcome =
  | Completed of Driver.result
  | Failed of exn
  | Timed_out
  | Cancelled

type job_result = {
  job : job;
  outcome : outcome;
  queue_wait_s : float;
  run_s : float;
  attempts : int;
  downgraded : bool;
}

let outcome_name = function
  | Completed _ -> "completed"
  | Failed _ -> "failed"
  | Timed_out -> "timed_out"
  | Cancelled -> "cancelled"

type runner = cancel:(unit -> bool) -> pool:Pool.t -> job -> Driver.result

let default_runner ~cancel ~pool job = Driver.run ~cancel ~pool job.config job.circuit

let default_downgrade cfg = { cfg with Config.policy = Config.Convert_at (-1) }

(* Lane order: priority descending, then submission sequence. *)
module Ready = Map.Make (struct
    type t = int * int (* priority, seq *)

    let compare (p1, s1) (p2, s2) =
      match Int.compare p2 p1 with 0 -> Int.compare s1 s2 | c -> c
  end)

(* One tenant's share of the queue. A lane is in [t.active] exactly while
   [ready] is non-empty, and in [t.lanes] while [jobs > 0]. *)
type lane = {
  tenant : string;
  mutable ready : tracked Ready.t;           (* queued, not yet dispatched *)
  mutable deficit : int;                     (* DRR credit, in gates *)
  mutable jobs : int;                        (* queued + running *)
}

and tracked = {
  t_job : job;
  seq : int;                                 (* submission order *)
  cost : int;                                (* gates, at least 1 *)
  lane : lane;
  submitted_at : float;
  mutable result : job_result option;        (* guarded by [mutex] *)
}

type t = {
  pool : Pool.t;
  mutex : Mutex.t;
  work : Condition.t;                        (* a job was queued, start, or shutdown *)
  resolved : Condition.t;                    (* [unresolved] dropped *)
  by_id : (string, tracked) Hashtbl.t;
  quantum : int;                             (* credit per lane visit, in gates *)
  lanes : (string, lane) Hashtbl.t;          (* tenants with a job queued or running *)
  active : lane Queue.t;                     (* backlogged lanes, next visit first *)
  mutable depth : int;                       (* queued jobs over all lanes *)
  mutable seq : int;
  mutable unresolved : int;                  (* submitted, result not yet delivered *)
  mutable started : bool;
  mutable closed : bool;                     (* shut down: no submits, runners exit *)
  mutable domains : unit Domain.t list;
  downgrade : Config.t -> Config.t;
  runner : runner;
  on_result : job_result -> unit;
  stop : bool Atomic.t;                      (* interrupt: cancel everything *)
}

(* Every critical section runs under this combinator, so an exception
   inside one can never leave [t.mutex] held. *)
let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* One atomic store, safe to call from a signal handler: every job's
   cancel poll reads this flag, so running jobs resolve as [Cancelled]
   within one gate and queued ones as soon as a slot picks them up.
   [drain] still returns the full result list, so a batch CLI can write
   whatever completed before the interrupt. *)
let interrupt t = Atomic.set t.stop true
let interrupted t = Atomic.get t.stop

(* A lane that holds no queued or running job is forgotten, so tenants
   that have gone idle cost nothing. *)
let leave t lane =
  lane.jobs <- lane.jobs - 1;
  if lane.jobs = 0 then Hashtbl.remove t.lanes lane.tenant

let report t jr =
  (match jr.outcome with
   | Completed _ -> Obs.incr c_completed
   | Failed _ -> Obs.incr c_failed
   | Timed_out -> Obs.incr c_timed_out
   | Cancelled -> Obs.incr c_cancelled);
  t.on_result jr

(* One slot's work for one job: measure queue wait, then run attempts
   under a shared cancellation poll until a final outcome. *)
let execute t tracked =
  let job = tracked.t_job in
  let started_at = Unix.gettimeofday () in
  let queue_wait_s = started_at -. tracked.submitted_at in
  Obs.add_span_ns s_queue_wait (int_of_float (queue_wait_s *. 1e9));
  let deadline_abs =
    if job.deadline_s > 0.0 then started_at +. job.deadline_s else infinity
  in
  let cancel_poll () = interrupted t || Unix.gettimeofday () > deadline_abs in
  if interrupted t then
    (* Interrupted while queued: resolve without starting an attempt. *)
    { job; outcome = Cancelled; queue_wait_s; run_s = 0.0; attempts = 0;
      downgraded = false }
  else begin
    let attempts = ref 0 in
    let downgraded = ref false in
    let rec attempt cfg =
      incr attempts;
      match t.runner ~cancel:cancel_poll ~pool:t.pool { job with config = cfg } with
      | r -> Completed r
      | exception Driver.Cancelled -> if interrupted t then Cancelled else Timed_out
      | exception e ->
        (* Retry only while the job is still allowed to run; a failure past
           the deadline or after an interrupt keeps the failure outcome but
           burns no further attempts. *)
        if !attempts <= job.max_retries && not (cancel_poll ()) then begin
          Obs.incr c_retries;
          downgraded := true;
          attempt (t.downgrade cfg)
        end
        else Failed e
    in
    let outcome, run_s = Obs.timed s_run (fun () -> attempt job.config) in
    { job; outcome; queue_wait_s; run_s; attempts = !attempts; downgraded = !downgraded }
  end

(* The DRR pick, under the lock, with a job queued: each visit to the
   head lane adds [quantum] credit, and its best job dispatches once its
   cost fits. A lane goes to the back after every visit and leaves the
   FIFO, forfeiting its credit, when it empties. A head costlier than the
   credit waits at most ceil(cost / quantum) rounds. *)
let rec pick t =
  let lane = Queue.pop t.active in
  lane.deficit <- lane.deficit + t.quantum;
  let key, tracked = Ready.min_binding lane.ready in
  if tracked.cost > lane.deficit then begin
    Queue.push lane t.active;
    pick t
  end
  else begin
    lane.ready <- Ready.remove key lane.ready;
    if Ready.is_empty lane.ready then lane.deficit <- 0
    else begin
      lane.deficit <- lane.deficit - tracked.cost;
      Queue.push lane t.active
    end;
    t.depth <- t.depth - 1;
    Obs.set_gauge g_depth t.depth;
    tracked
  end

(* The next job to run, taken under the lock; [None] once shut down. *)
let next_job t =
  locked t (fun () ->
      while (not t.closed) && (t.depth = 0 || not t.started) do
        Condition.wait t.work t.mutex
      done;
      if t.closed then None else Some (pick t))

(* A runner domain: run each job with no lock held, store its result and
   release its lane's load, report it, then count it resolved, so [drain]
   returns only after every [on_result]. *)
let rec runner_loop t =
  match next_job t with
  | None -> ()
  | Some tracked ->
    (* A raising [downgrade] or [on_result] must not kill the slot. *)
    let jr = match execute t tracked with jr -> Some jr | exception e -> ignore e; None in
    locked t (fun () ->
        tracked.result <- jr;
        leave t tracked.lane);
    Option.iter (fun jr -> try report t jr with e -> ignore e) jr;
    locked t (fun () ->
        t.unresolved <- t.unresolved - 1;
        Condition.broadcast t.resolved);
    runner_loop t

let create ?(downgrade = default_downgrade) ?(runner = default_runner)
    ?(on_result = fun _ -> ()) ?(paused = false) ?(quantum = 64) ~pool ~slots () =
  if slots < 1 then invalid_arg "Sched.create: slots must be >= 1";
  let t =
    { pool;
      mutex = Mutex.create ();
      work = Condition.create ();
      resolved = Condition.create ();
      by_id = Hashtbl.create 64;
      quantum = max 1 quantum;
      lanes = Hashtbl.create 16;
      active = Queue.create ();
      depth = 0;
      seq = 0;
      unresolved = 0;
      started = not paused;
      closed = false;
      domains = [];
      downgrade;
      runner;
      on_result;
      stop = Atomic.make false }
  in
  t.domains <- List.init slots (fun _ -> Domain.spawn (fun () -> runner_loop t));
  t

let start_locked t =
  if not t.started then begin
    t.started <- true;
    Condition.broadcast t.work
  end

let start t = locked t (fun () -> start_locked t)

let submit t job =
  let submitted_at = Unix.gettimeofday () in
  locked t (fun () ->
      if t.closed then invalid_arg "Sched.submit: scheduler is shut down";
      if Hashtbl.mem t.by_id job.id then
        invalid_arg (Printf.sprintf "Sched.submit: duplicate job id %S" job.id);
      let lane =
        match Hashtbl.find_opt t.lanes job.tenant with
        | Some lane -> lane
        | None ->
          let lane = { tenant = job.tenant; ready = Ready.empty; deficit = 0; jobs = 0 } in
          Hashtbl.add t.lanes job.tenant lane;
          lane
      in
      let tracked =
        { t_job = job; seq = t.seq; cost = max 1 (Circuit.num_gates job.circuit); lane;
          submitted_at; result = None }
      in
      Hashtbl.add t.by_id job.id tracked;
      if Ready.is_empty lane.ready then Queue.push lane t.active;
      lane.ready <- Ready.add (job.priority, t.seq) tracked lane.ready;
      lane.jobs <- lane.jobs + 1;
      t.seq <- t.seq + 1;
      t.depth <- t.depth + 1;
      Obs.set_gauge g_depth t.depth;
      t.unresolved <- t.unresolved + 1;
      if t.started then Condition.signal t.work);
  Obs.incr c_submitted

let load t ~tenant =
  locked t (fun () ->
      match Hashtbl.find_opt t.lanes tenant with Some lane -> lane.jobs | None -> 0)

let release t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_id id with
      | Some tracked when tracked.result <> None -> Hashtbl.remove t.by_id id
      | _ -> ())

let drain t =
  let results =
    locked t (fun () ->
        start_locked t;
        while t.unresolved > 0 do
          Condition.wait t.resolved t.mutex
        done;
        Hashtbl.fold
          (fun _ (tracked : tracked) acc ->
             let jr =
               match tracked.result with
               | Some jr -> jr
               | None ->
                 (* Dropped from the queue by [shutdown] before it ever ran. *)
                 { job = tracked.t_job; outcome = Cancelled; queue_wait_s = 0.0;
                   run_s = 0.0; attempts = 0; downgraded = false }
             in
             (tracked.seq, jr) :: acc)
          t.by_id [])
  in
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) results)

let shutdown t =
  let domains =
    locked t (fun () ->
        if t.closed then []
        else begin
          t.closed <- true;
          t.unresolved <- t.unresolved - t.depth;
          Queue.iter
            (fun lane ->
               Ready.iter (fun _ _ -> leave t lane) lane.ready;
               lane.ready <- Ready.empty)
            t.active;
          Queue.clear t.active;
          t.depth <- 0;
          Obs.set_gauge g_depth 0;
          Condition.broadcast t.work;
          Condition.broadcast t.resolved;
          let ds = t.domains in
          t.domains <- [];
          ds
        end)
  in
  List.iter Domain.join domains

let run_jobs ?downgrade ?runner ?on_result ~pool ~slots jobs =
  let t = create ?downgrade ?runner ?on_result ~paused:true ~pool ~slots () in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
       List.iter (submit t) jobs;
       start t;
       drain t)
