(* The batch scheduler: Taskq supplies slot domains and priority/FIFO
   dispatch; this module layers job identity, deadlines, cooperative
   cancellation and retry-with-downgrade on top, and keeps the per-job
   accounting the batch CLI serializes.

   Deadline enforcement needs no watchdog thread: the cancellation poll
   handed to the simulator compares the wall clock against the job's
   absolute deadline at every gate boundary, so a deadline fires within
   one gate of its expiry and is classified afterwards by looking at the
   user-cancel flag. *)

let c_submitted = Obs.counter "sched.submitted"
let c_completed = Obs.counter "sched.completed"
let c_failed = Obs.counter "sched.failed"
let c_timed_out = Obs.counter "sched.timed_out"
let c_cancelled = Obs.counter "sched.cancelled"
let c_retries = Obs.counter "sched.retries"
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

type tracked = {
  t_job : job;
  submitted_at : float;
  user_cancel : bool Atomic.t;
  mutable handle : unit Taskq.handle option; (* set before submit returns *)
  mutable result : job_result option;        (* guarded by [mutex] *)
}

type t = {
  tq : Taskq.t;
  pool : Pool.t;
  mutex : Mutex.t;
  by_id : (string, tracked) Hashtbl.t;
  mutable order : tracked list;              (* reverse submission order *)
  downgrade : Config.t -> Config.t;
  runner : runner;
  on_result : job_result -> unit;
  stop : bool Atomic.t;                      (* interrupt: cancel everything *)
}

let create ?(downgrade = default_downgrade) ?(runner = default_runner)
    ?(on_result = fun _ -> ()) ?paused ~pool ~slots () =
  { tq = Taskq.create ?paused slots;
    pool;
    mutex = Mutex.create ();
    by_id = Hashtbl.create 64;
    order = [];
    downgrade;
    runner;
    on_result;
    stop = Atomic.make false }

let start t = Taskq.start t.tq

(* One atomic store, safe to call from a signal handler: every job's
   cancel poll ORs this flag in, so running jobs resolve as [Cancelled]
   within one gate and queued ones as soon as a slot picks them up.
   [drain] still returns the full result list, so a batch CLI can write
   whatever completed before the interrupt. *)
let interrupt t = Atomic.set t.stop true
let interrupted t = Atomic.get t.stop

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t tracked jr =
  locked t (fun () -> tracked.result <- Some jr);
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
  let user_cancelled () = Atomic.get tracked.user_cancel || Atomic.get t.stop in
  let cancel_poll () = user_cancelled () || Unix.gettimeofday () > deadline_abs in
  if user_cancelled () then
    (* Cancelled (or the whole scheduler interrupted) while queued but
       after dispatch won the race against [cancel]: resolve without
       starting an attempt. *)
    record t tracked
      { job; outcome = Cancelled; queue_wait_s; run_s = 0.0; attempts = 0;
        downgraded = false }
  else begin
    let attempts = ref 0 in
    let downgraded = ref false in
    let rec attempt cfg =
      incr attempts;
      match t.runner ~cancel:cancel_poll ~pool:t.pool { job with config = cfg } with
      | r -> Completed r
      | exception Driver.Cancelled ->
        if user_cancelled () then Cancelled else Timed_out
      | exception e ->
        (* Retry only while the job is still allowed to run; a failure past
           the deadline or after a cancel keeps the failure outcome but
           burns no further attempts. *)
        if !attempts <= job.max_retries && not (cancel_poll ()) then begin
          Obs.incr c_retries;
          downgraded := true;
          attempt (t.downgrade cfg)
        end
        else Failed e
    in
    let outcome, run_s = Obs.timed s_run (fun () -> attempt job.config) in
    record t tracked
      { job; outcome; queue_wait_s; run_s; attempts = !attempts; downgraded = !downgraded }
  end

let submit t job =
  let tracked =
    { t_job = job;
      submitted_at = Unix.gettimeofday ();
      user_cancel = Atomic.make false;
      handle = None;
      result = None }
  in
  locked t (fun () ->
      if Hashtbl.mem t.by_id job.id then
        invalid_arg (Printf.sprintf "Sched.submit: duplicate job id %S" job.id);
      Hashtbl.add t.by_id job.id tracked;
      t.order <- tracked :: t.order);
  Obs.incr c_submitted;
  tracked.handle <- Some (Taskq.submit ~priority:job.priority t.tq (fun () -> execute t tracked))

let cancel t id =
  let tracked = locked t (fun () -> Hashtbl.find_opt t.by_id id) in
  match tracked with
  | None -> false
  | Some tracked ->
    let already_done = locked t (fun () -> tracked.result <> None) in
    if already_done then false
    else begin
      Atomic.set tracked.user_cancel true;
      let aborted =
        match tracked.handle with Some h -> Taskq.try_abort h | None -> false
      in
      if aborted then
        (* Never dispatched: synthesize the result here; queue wait ends now. *)
        record t tracked
          { job = tracked.t_job;
            outcome = Cancelled;
            queue_wait_s = Unix.gettimeofday () -. tracked.submitted_at;
            run_s = 0.0;
            attempts = 0;
            downgraded = false };
      (* Running (or racing to completion): the poll resolves it. Either
         way the cancel landed on an unresolved job. *)
      true
    end

let release t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_id id with
      | Some tracked when tracked.result <> None ->
        Hashtbl.remove t.by_id id;
        t.order <- List.filter (fun x -> x != tracked) t.order
      | _ -> ())

let drain t =
  Taskq.wait_idle t.tq;
  let in_order = locked t (fun () -> List.rev t.order) in
  List.map
    (fun tracked ->
       match locked t (fun () -> tracked.result) with
       | Some jr -> jr
       | None ->
         (* Only reachable if the queue was shut down under the job. *)
         { job = tracked.t_job;
           outcome = Cancelled;
           queue_wait_s = 0.0;
           run_s = 0.0;
           attempts = 0;
           downgraded = false })
    in_order

let shutdown t = Taskq.shutdown t.tq

let run_jobs ?downgrade ?runner ?on_result ~pool ~slots jobs =
  let t = create ?downgrade ?runner ?on_result ~paused:true ~pool ~slots () in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
       List.iter (submit t) jobs;
       start t;
       drain t)
