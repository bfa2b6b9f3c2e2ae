type job = (int -> unit) option

(* Global instrumentation: jobs posted, parallel_for dispatches, and the
   accumulated busy time of all workers (the caller's share included). The
   busy span's count is worker-job executions, not jobs. The admission span
   accumulates the time concurrent callers spent waiting for the pool. *)
let c_jobs = Obs.counter "pool.jobs"
let c_parallel_for = Obs.counter "pool.parallel_for"
let s_busy = Obs.span "pool.worker_busy"
let s_admission = Obs.span "pool.admission_wait"

let timed_apply f w =
  if Obs.enabled () then Obs.with_span s_busy (fun () -> f w) else f w

(* Under FLATDD_CHECK the worker's share is bracketed (keyed by the
   pool's identity) so the checker can refuse re-entrant admission: a
   worker re-entering [run] on its own pool would deadlock on the
   admission mutex, while nesting a different pool is fine. *)
let guarded_apply ~key f w =
  if Check.enabled () then begin
    Check.enter_job ~key;
    Fun.protect ~finally:(fun () -> Check.leave_job ~key) (fun () -> timed_apply f w)
  end
  else timed_apply f w

let pool_ids = Atomic.make 0

type t = {
  id : int;                     (* process-unique, keys the re-entrancy check *)
  size : int;
  admission : Mutex.t;          (* serializes whole fork-join jobs across callers *)
  jobs : Waiter.t;              (* workers wait here for a new job (or shutdown) *)
  joins : Waiter.t;             (* the caller waits here for the last worker *)
  job : job Atomic.t;           (* written before [generation] is bumped *)
  generation : int Atomic.t;    (* job sequence number; workers run each generation once *)
  pending : int Atomic.t;       (* workers still running the current job *)
  stop : bool Atomic.t;
  failure : exn option Atomic.t; (* first exception raised by any worker *)
  mutable domains : unit Domain.t list;
}

(* Worker loop: wait for a fresh generation, run the job with this
   worker's index, report completion. A job is handed over by spinning
   before parking ([Waiter]), so back-to-back jobs never reach the
   condvar. [job] is written before [generation] is bumped and only
   while [pending = 0], so a worker that sees a new generation sees its
   job. *)
let worker_loop t w =
  let my_gen = ref 0 in
  let fresh () = Atomic.get t.stop || Atomic.get t.generation <> !my_gen in
  let continue = ref true in
  while !continue do
    Waiter.await t.jobs fresh;
    if Atomic.get t.stop then continue := false
    else begin
      my_gen := Atomic.get t.generation;
      let f = match Atomic.get t.job with Some f -> f | None -> fun _ -> () in
      (try guarded_apply ~key:t.id f w
       with e -> ignore (Atomic.compare_and_set t.failure None (Some e)));
      if Atomic.fetch_and_add t.pending (-1) = 1 then Waiter.wake t.joins
    end
  done

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    { id = Atomic.fetch_and_add pool_ids 1;
      size;
      admission = Mutex.create ();
      jobs = Waiter.create ();
      joins = Waiter.create ();
      job = Atomic.make None;
      generation = Atomic.make 0;
      pending = Atomic.make 0;
      stop = Atomic.make false;
      failure = Atomic.make None;
      domains = [] }
  in
  let spawn w = Domain.spawn (fun () -> worker_loop t w) in
  t.domains <- List.init (size - 1) (fun i -> spawn (i + 1));
  t

let size t = t.size

(* Concurrent callers (e.g. scheduler slots sharing one pool) are admitted
   one fork-join job at a time: the admission mutex is held for the whole
   job, so [job]/[generation]/[pending] only ever see a single driver. A
   size-1 pool runs inline and needs no admission. *)
let run t f =
  if Atomic.get t.stop then invalid_arg "Pool.run: pool is shut down";
  Obs.incr c_jobs;
  if t.size = 1 then timed_apply f 0
  else begin
    if Check.enabled () then Check.guard_admission ~what:"Pool.run" ~key:t.id;
    if Obs.enabled () then Obs.with_span s_admission (fun () -> Mutex.lock t.admission)
    else Mutex.lock t.admission;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.admission)
      (fun () ->
         if Atomic.get t.stop then invalid_arg "Pool.run: pool is shut down";
         Atomic.set t.job (Some f);
         Atomic.set t.failure None;
         Atomic.set t.pending (t.size - 1);
         Atomic.incr t.generation;
         Waiter.wake t.jobs;
         let caller_result = try Ok (guarded_apply ~key:t.id f 0) with e -> Error e in
         Waiter.await t.joins (fun () -> Atomic.get t.pending = 0);
         Atomic.set t.job None;
         match caller_result, Atomic.get t.failure with
         | Error e, _ -> raise e
         | Ok (), Some e -> raise e
         | Ok (), None -> ())
  end

let default_chunk t ~lo ~hi =
  let span = hi - lo in
  let target = t.size * 8 in
  Int.max 1 ((span + target - 1) / target)

let parallel_for_ranges ?chunk t ~lo ~hi f =
  if hi > lo then begin
    Obs.incr c_parallel_for;
    let chunk = match chunk with Some c -> Int.max 1 c | None -> default_chunk t ~lo ~hi in
    if t.size = 1 || hi - lo <= chunk then f lo hi
    else begin
      let cursor = Atomic.make lo in
      (* Check mode: every chunk a domain receives is claimed on a region
         scoped to this dispatch, so a cursor bug handing the same index
         range to two domains is caught as a race before [f] runs. *)
      let claim =
        if Check.enabled () then begin
          let r = Check.region ~name:"pool.parallel_for" in
          fun a b -> Check.claim r ~owner:(Domain.self () :> int) ~lo:a ~hi:b
        end
        else fun _ _ -> ()
      in
      let work _w =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add cursor chunk in
          if start >= hi then continue := false
          else begin
            let stop = Int.min hi (start + chunk) in
            claim start stop;
            f start stop
          end
        done
      in
      run t work
    end
  end

let parallel_for ?chunk t ~lo ~hi f =
  parallel_for_ranges ?chunk t ~lo ~hi (fun a b ->
      for i = a to b - 1 do
        f i
      done)

let shutdown t =
  if Atomic.compare_and_set t.stop false true then begin
    Waiter.wake t.jobs;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
