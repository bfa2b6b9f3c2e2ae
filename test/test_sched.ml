(* Scheduler semantics: dispatch order (priority, FIFO within a priority,
   deficit round robin across tenants, many jobs over several slots, many
   idle tenants), deadlines firing in either phase
   (each followed by a job completing on the same pool), retry-with-
   downgrade, a raising runner, interrupts, shutdown, and a randomized
   batch cross-checked against sequential execution over the same pool. *)

let never_convert = { Config.default with Config.policy = Config.Never_convert }
let force_dmav = { Config.default with Config.policy = Config.Convert_at (-1) }

let outcome_label jr = Sched.outcome_name jr.Sched.outcome

let test_simulate_cancel_raises () =
  let c = Suite.generate ~seed:1 Suite.Ghz ~n:6 in
  Pool.with_pool 1 (fun pool ->
      Alcotest.check_raises "immediate cancel" Driver.Cancelled (fun () ->
          ignore (Driver.run ~cancel:(fun () -> true) ~pool Config.default c));
      (* The supplied pool stays usable after the abandoned run. *)
      let r = Driver.run ~pool Config.default c in
      Alcotest.(check int) "pool reusable" 6 r.Driver.n)

let test_batch_completes () =
  Pool.with_pool 2 (fun pool ->
      let jobs =
        List.init 8 (fun i ->
            let c = Suite.generate ~seed:i Suite.Qft ~n:7 in
            Sched.job ~id:(Printf.sprintf "qft-%d" i) c)
      in
      let results = Sched.run_jobs ~pool ~slots:3 jobs in
      Alcotest.(check int) "all results" 8 (List.length results);
      List.iter
        (fun jr ->
           Alcotest.(check string) ("outcome " ^ jr.Sched.job.Sched.id) "completed"
             (outcome_label jr);
           Alcotest.(check int) "one attempt" 1 jr.Sched.attempts;
           Alcotest.(check bool) "wait measured" true (jr.Sched.queue_wait_s >= 0.0))
        results;
      (* drain order is submission order, not completion order *)
      Alcotest.(check (list string)) "submission order"
        (List.map (fun (j : Sched.job) -> j.Sched.id) jobs)
        (List.map (fun jr -> jr.Sched.job.Sched.id) results))

(* One slot, everything queued while paused: the runner records the
   order jobs start in. *)
let dispatch_order jobs =
  Pool.with_pool 1 (fun pool ->
      let started = ref [] in
      let runner ~cancel ~pool (job : Sched.job) =
        started := job.Sched.id :: !started;
        Driver.run ~cancel ~pool job.Sched.config job.Sched.circuit
      in
      let results = Sched.run_jobs ~runner ~pool ~slots:1 jobs in
      List.iter
        (fun jr -> Alcotest.(check string) "completed" "completed" (outcome_label jr))
        results;
      List.rev !started)

let test_priority_ordering () =
  let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
  let mk id priority = Sched.job ~priority ~id c in
  (* run_jobs queues everything while paused, so one slot must dispatch
     strictly by (priority desc, submission asc). *)
  Alcotest.(check (list string)) "dispatch order"
    [ "urgent-a"; "urgent-b"; "normal"; "low-first"; "low-second" ]
    (dispatch_order
       [ mk "low-first" 0; mk "urgent-a" 9; mk "normal" 4; mk "urgent-b" 9;
         mk "low-second" 0 ]);
  (* Two tenants of equal cost take turns, tenant a first (it submitted
     first); each keeps priority, then FIFO, within its own lane. *)
  let mk tenant id priority = Sched.job ~tenant ~priority ~id c in
  Alcotest.(check (list string)) "tenants interleave"
    [ "a-urgent"; "b-high"; "a-mid"; "b-low-1"; "a-low-1"; "b-low-2"; "a-low-2" ]
    (dispatch_order
       [ mk "a" "a-low-1" 0; mk "b" "b-low-1" 0; mk "a" "a-urgent" 9; mk "b" "b-high" 5;
         mk "a" "a-low-2" 0; mk "a" "a-mid" 4; mk "b" "b-low-2" 0 ])

(* Queue-level checks of the scheduler's one job queue, kept under the
   "taskq" group name of the standalone task queue it replaced. Jobs are
   2-qubit GHZ circuits, so the runs cost next to nothing and the queue
   discipline is what is under test. *)
let tiny = Suite.generate ~seed:1 Suite.Ghz ~n:2

let test_queue_priority_order () =
  (* Priorities span negative to large; one slot dispatches by
     (priority desc, submission asc) across all of them. *)
  let mk id priority = Sched.job ~priority ~id tiny in
  Alcotest.(check (list string)) "dispatch order"
    [ "high-a"; "high-b"; "mid"; "low-a"; "low-b"; "neg" ]
    (dispatch_order
       [ mk "low-a" 0; mk "neg" (-3); mk "high-a" 1000; mk "mid" 2;
         mk "high-b" 1000; mk "low-b" 0 ])

let test_queue_fifo_within_priority () =
  let ids = List.init 20 (Printf.sprintf "fifo-%02d") in
  Alcotest.(check (list string)) "fifo" ids
    (dispatch_order (List.map (fun id -> Sched.job ~id tiny) ids))

let test_queue_many_jobs_all_run () =
  Pool.with_pool 2 (fun pool ->
      let acc = Atomic.make 0 in
      let runner ~cancel ~pool (job : Sched.job) =
        ignore (Atomic.fetch_and_add acc (int_of_string job.Sched.id));
        Driver.run ~cancel ~pool job.Sched.config job.Sched.circuit
      in
      let jobs =
        List.init 200 (fun i ->
            Sched.job ~priority:(i mod 3) ~id:(string_of_int i) tiny)
      in
      let results = Sched.run_jobs ~runner ~pool ~slots:4 jobs in
      Alcotest.(check int) "all resolved" 200 (List.length results);
      List.iter
        (fun jr -> Alcotest.(check string) "completed" "completed" (outcome_label jr))
        results;
      Alcotest.(check int) "sum of indices" (200 * 199 / 2) (Atomic.get acc))

(* The DRR across tenant lanes, on a paused one-slot scheduler with a
   quantum of 10 gates. A job's cost is its gate count, so each job is a
   1-qubit circuit of that many X gates; the runner fails at once, and
   on_result sees the jobs in dispatch order. *)
let x_gates k =
  Circuit.make 1
    (List.init k (fun _ -> Circuit.Single { name = "x"; matrix = Gate.x; target = 0; controls = [] }))

let fail_at_once ~cancel:_ ~pool:_ (_ : Sched.job) = failwith "not run"

let drr_order jobs =
  Pool.with_pool 1 (fun pool ->
      let sched = ref None in
      let seen = ref [] in
      let on_result jr =
        let tenant = jr.Sched.job.Sched.tenant in
        seen := (jr.Sched.job, Sched.load (Option.get !sched) ~tenant) :: !seen
      in
      let t =
        Sched.create ~runner:fail_at_once ~on_result ~paused:true ~quantum:10 ~pool ~slots:1 ()
      in
      sched := Some t;
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           List.iter
             (fun (tenant, id, cost) -> Sched.submit t (Sched.job ~tenant ~id (x_gates cost)))
             jobs;
           ignore (Sched.drain t);
           (* A job leaves its tenant's load before on_result sees it, so
              with one slot the load is the tenant's jobs still queued. *)
           let queued tenant = List.length (List.filter (fun (t, _, _) -> t = tenant) jobs) in
           let left = Hashtbl.create 4 in
           List.iter
             (fun ((j : Sched.job), load) ->
                let tenant = j.Sched.tenant in
                let n = Option.value (Hashtbl.find_opt left tenant) ~default:(queued tenant) - 1 in
                Hashtbl.replace left tenant n;
                Alcotest.(check int) ("load seen with " ^ j.Sched.id) n load)
             (List.rev !seen);
           List.rev_map (fun ((j : Sched.job), _) -> (j.Sched.tenant, j.Sched.id)) !seen))

let test_drr_interleaves_tenants () =
  (* Tenant a floods 6 jobs; tenant b has 2. Equal costs: the picker must
     alternate rather than first-come-first-served through a's burst. *)
  let order =
    drr_order
      (List.init 6 (fun i -> ("a", Printf.sprintf "a%d" i, 10))
       @ List.init 2 (fun i -> ("b", Printf.sprintf "b%d" i, 10)))
  in
  Alcotest.(check int) "all dispatched" 8 (List.length order);
  let first_four = List.filteri (fun i _ -> i < 4) order in
  Alcotest.(check int) "b served twice within the first four picks" 2
    (List.length (List.filter (fun (t, _) -> t = "b") first_four));
  Alcotest.(check (list string)) "per-tenant FIFO" [ "a0"; "a1"; "a2"; "a3"; "a4"; "a5" ]
    (List.filter_map (fun (t, id) -> if t = "a" then Some id else None) order)

let test_drr_weights_by_cost () =
  (* a's jobs are 3x the cost of b's: b should get ~3 picks per a pick. *)
  let order =
    drr_order
      (List.init 4 (fun i -> ("a", Printf.sprintf "a%d" i, 30))
       @ List.init 12 (fun i -> ("b", Printf.sprintf "b%d" i, 10)))
  in
  let prefix = List.filteri (fun i _ -> i < 8) order in
  Alcotest.(check bool) "cheap tenant gets proportionally more picks" true
    (List.length (List.filter (fun (t, _) -> t = "b") prefix) >= 5)

let test_drr_head_above_quantum () =
  (* A head costlier than one quantum must still dispatch: the picker
     keeps cycling (banking credit) while any lane holds a job, instead
     of leaving the slot idle with work queued. *)
  Alcotest.(check (list (pair string string))) "both dispatched, cheaper first"
    [ ("b", "b0"); ("a", "a0") ]
    (drr_order [ ("a", "a0", 1000); ("b", "b0", 35) ])

(* Tenants that have gone idle cost nothing: after 20,000 one-job tenants
   have come and gone, one tenant's 20 jobs dispatch as fast as on a
   fresh scheduler, and no tenant keeps a load. *)
let test_idle_tenants_cost_nothing () =
  Pool.with_pool 1 (fun pool ->
      let t = Sched.create ~runner:fail_at_once ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           let tenants = List.init 20_000 (Printf.sprintf "t%d") in
           List.iter
             (fun tenant -> Sched.submit t (Sched.job ~tenant ~id:tenant tiny))
             tenants;
           ignore (Sched.drain t);
           let t0 = Unix.gettimeofday () in
           for i = 0 to 19 do
             Sched.submit t (Sched.job ~tenant:"busy" ~id:(Printf.sprintf "busy-%d" i) tiny)
           done;
           let results = Sched.drain t in
           let elapsed = Unix.gettimeofday () -. t0 in
           Alcotest.(check int) "every job resolved" 20_020 (List.length results);
           if elapsed >= 1.0 then
             Alcotest.failf "20 jobs of one tenant took %.3f s after 20,000 idle tenants"
               elapsed;
           List.iter
             (fun tenant ->
                if Sched.load t ~tenant <> 0 then Alcotest.failf "tenant %s keeps a load" tenant)
             ("busy" :: tenants)))

let test_deadline_dd_phase () =
  Pool.with_pool 2 (fun pool ->
      (* Never_convert keeps the whole run in the DD phase, so the
         deadline must land between DD gate applications. *)
      let slow = Suite.generate ~seed:3 ~gates:4000 Suite.Supremacy ~n:12 in
      let jobs =
        [ Sched.job ~config:never_convert ~deadline_s:0.001 ~id:"slow" slow;
          Sched.job ~id:"after" (Suite.generate ~seed:1 Suite.Ghz ~n:8) ]
      in
      let results = Sched.run_jobs ~pool ~slots:1 jobs in
      Alcotest.(check (list string)) "timed_out then completed"
        [ "timed_out"; "completed" ]
        (List.map outcome_label results);
      let timed = List.hd results in
      Alcotest.(check int) "no retry after timeout" 1 timed.Sched.attempts)

let test_deadline_dmav_phase () =
  Pool.with_pool 2 (fun pool ->
      (* Convert_at (-1) converts the trivial |0…0⟩ DD immediately: the
         run spends all its time in the DMAV phase, where the per-gate
         poll must pick the deadline up. *)
      let slow = Suite.generate ~seed:3 ~gates:2000 Suite.Supremacy ~n:13 in
      let jobs =
        [ Sched.job ~config:force_dmav ~deadline_s:0.002 ~id:"slow-dmav" slow;
          Sched.job ~config:force_dmav ~id:"after-dmav"
            (Suite.generate ~seed:1 Suite.Qft ~n:6) ]
      in
      let results = Sched.run_jobs ~pool ~slots:1 jobs in
      Alcotest.(check (list string)) "timed_out then completed"
        [ "timed_out"; "completed" ]
        (List.map outcome_label results))

let test_retry_with_downgrade () =
  Pool.with_pool 1 (fun pool ->
      let attempts_seen = ref [] in
      let runner ~cancel ~pool (job : Sched.job) =
        let cfg = job.Sched.config in
        attempts_seen := cfg.Config.policy :: !attempts_seen;
        if cfg.Config.policy <> Config.Convert_at (-1) then failwith "injected dd blowup";
        Driver.run ~cancel ~pool cfg job.Sched.circuit
      in
      let c = Suite.generate ~seed:1 Suite.Ghz ~n:6 in
      let results =
        Sched.run_jobs ~runner ~pool ~slots:1
          [ Sched.job ~max_retries:1 ~id:"retried" c;
            Sched.job ~max_retries:0 ~id:"exhausted" c ]
      in
      (match results with
       | [ retried; exhausted ] ->
         Alcotest.(check string) "retried completes" "completed" (outcome_label retried);
         Alcotest.(check int) "two attempts" 2 retried.Sched.attempts;
         Alcotest.(check bool) "downgraded" true retried.Sched.downgraded;
         Alcotest.(check string) "no retries -> failed" "failed" (outcome_label exhausted);
         (match exhausted.Sched.outcome with
          | Sched.Failed (Failure m) ->
            Alcotest.(check string) "original error kept" "injected dd blowup" m
          | _ -> Alcotest.fail "expected Failed (Failure _)");
         Alcotest.(check int) "single attempt" 1 exhausted.Sched.attempts
       | _ -> Alcotest.fail "expected two results");
      Alcotest.(check (list bool)) "first attempt default, second downgraded"
        [ false; true; false ]
        (List.rev_map (fun p -> p = Config.Convert_at (-1)) !attempts_seen))

(* A runner raising (retries exhausted) resolves that job as failed; the
   slot keeps serving the queue. *)
let test_raising_runner_keeps_slot () =
  Pool.with_pool 1 (fun pool ->
      let runner ~cancel ~pool (job : Sched.job) =
        if job.Sched.id = "boom" then failwith "boom";
        Driver.run ~cancel ~pool job.Sched.config job.Sched.circuit
      in
      let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
      let results =
        Sched.run_jobs ~runner ~pool ~slots:1
          [ Sched.job ~id:"boom" c; Sched.job ~id:"next" c ]
      in
      Alcotest.(check (list string)) "failed then completed"
        [ "failed"; "completed" ]
        (List.map outcome_label results))

(* Shutdown of a paused scheduler drops the queue: every job resolves as
   cancelled without an attempt, and on_result never sees them. *)
let test_shutdown_drops_queued () =
  Pool.with_pool 1 (fun pool ->
      let seen = Atomic.make 0 in
      let t =
        Sched.create ~on_result:(fun _ -> Atomic.incr seen) ~paused:true ~pool ~slots:1 ()
      in
      let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
      Sched.submit t (Sched.job ~id:"a" c);
      Sched.submit t (Sched.job ~id:"b" ~priority:3 c);
      Sched.shutdown t;
      Sched.shutdown t;
      let results = Sched.drain t in
      Alcotest.(check (list string)) "both cancelled" [ "cancelled"; "cancelled" ]
        (List.map outcome_label results);
      List.iter
        (fun jr -> Alcotest.(check int) "never attempted" 0 jr.Sched.attempts)
        results;
      Alcotest.(check int) "no callbacks" 0 (Atomic.get seen))

(* A submit after shutdown is rejected before the job is tracked: drain
   does not list it. *)
let test_submit_after_shutdown () =
  Pool.with_pool 1 (fun pool ->
      let t = Sched.create ~pool ~slots:1 () in
      let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
      Sched.submit t (Sched.job ~id:"before" c);
      ignore (Sched.drain t);
      Sched.shutdown t;
      Alcotest.check_raises "submit after shutdown"
        (Invalid_argument "Sched.submit: scheduler is shut down") (fun () ->
          Sched.submit t (Sched.job ~id:"late" c));
      Alcotest.(check (list string)) "rejected job not listed" [ "before" ]
        (List.map (fun jr -> jr.Sched.job.Sched.id) (Sched.drain t)))

let test_duplicate_id_rejected () =
  Pool.with_pool 1 (fun pool ->
      let t = Sched.create ~paused:true ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
           Sched.submit t (Sched.job ~id:"dup" c);
           Alcotest.check_raises "duplicate id"
             (Invalid_argument "Sched.submit: duplicate job id \"dup\"") (fun () ->
               Sched.submit t (Sched.job ~id:"dup" c))))

(* The randomized stress batch: mixed families, priorities and policies
   through 4 slots, cross-checked amplitude-for-amplitude against plain
   sequential simulation over the same pool (same pool size -> the DMAV
   reductions sum in the same order, so the comparison is exact). *)
let test_stress_matches_sequential () =
  Pool.with_pool 2 (fun pool ->
      let rng = Rng.create 2024 in
      let families = [| Suite.Ghz; Suite.Qft; Suite.Supremacy; Suite.Bv; Suite.Vqe |] in
      let jobs =
        List.init 50 (fun i ->
            let family = families.(Rng.int rng (Array.length families)) in
            let n = 5 + Rng.int rng 4 in
            let seed = Rng.derive 7 i in
            let config = if Rng.int rng 4 = 0 then force_dmav else Config.default in
            let circuit = Suite.generate ~seed family ~n in
            Sched.job ~config ~priority:(Rng.int rng 3)
              ~id:(Printf.sprintf "stress-%d" i) circuit)
      in
      let results = Sched.run_jobs ~pool ~slots:4 jobs in
      Alcotest.(check int) "all 50 resolved" 50 (List.length results);
      List.iter2
        (fun (j : Sched.job) jr ->
           (match jr.Sched.outcome with
            | Sched.Completed r ->
              let expected =
                Driver.run ~pool j.Sched.config j.Sched.circuit
              in
              let got = Driver.amplitudes r in
              let want = Driver.amplitudes expected in
              let dim = Buf.length want in
              Alcotest.(check int) ("dim " ^ j.Sched.id) dim (Buf.length got);
              for k = 0 to dim - 1 do
                let d = Cnum.sub (Buf.get got k) (Buf.get want k) in
                if Cnum.norm2 d > 1e-24 then
                  Alcotest.failf "%s: amplitude %d differs from sequential run"
                    j.Sched.id k
              done
            | _ -> Alcotest.failf "%s: expected completion, got %s" j.Sched.id
                     (outcome_label jr)))
        jobs results)

(* interrupt: one atomic store cancels the whole batch — queued jobs
   never start, the running one stops within a gate, and drain still
   returns a result for every submitted job (the graceful-shutdown path
   of flatdd_batch and flatdd_serve). *)
let test_interrupt_cancels_batch () =
  Pool.with_pool 2 (fun pool ->
      let t = Sched.create ~paused:true ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           let circuit = Suite.generate ~seed:3 Suite.Qft ~n:10 in
           for i = 0 to 3 do
             Sched.submit t (Sched.job ~id:(Printf.sprintf "j%d" i) circuit)
           done;
           Alcotest.(check bool) "not interrupted yet" false (Sched.interrupted t);
           Sched.interrupt t;
           Sched.start t;
           let results = Sched.drain t in
           Alcotest.(check int) "every job resolved" 4 (List.length results);
           List.iter
             (fun jr ->
                Alcotest.(check string) "interrupted jobs cancel"
                  "cancelled" (Sched.outcome_name jr.Sched.outcome))
             results))

let test_interrupt_mid_run () =
  Pool.with_pool 2 (fun pool ->
      let started = Atomic.make false in
      (* A runner that signals dispatch, then cooperatively polls like the
         simulator does — the interrupt must land through the poll. *)
      let runner ~cancel ~pool:_ (_ : Sched.job) =
        Atomic.set started true;
        let rec spin n =
          if cancel () then raise Driver.Cancelled
          else if n = 0 then Alcotest.fail "interrupt never reached the poll"
          else begin
            Thread.delay 0.002;
            spin (n - 1)
          end
        in
        spin 5000
      in
      let t = Sched.create ~runner ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           Sched.submit t (Sched.job ~id:"long" (Suite.generate ~seed:1 Suite.Ghz ~n:4));
           while not (Atomic.get started) do
             Thread.delay 0.001
           done;
           Sched.interrupt t;
           match Sched.drain t with
           | [ jr ] ->
             Alcotest.(check string) "running job cancelled" "cancelled"
               (Sched.outcome_name jr.Sched.outcome)
           | results -> Alcotest.failf "expected 1 result, got %d" (List.length results)))

let suite =
  [ ( "sched",
      [ Alcotest.test_case "simulate honors cancel" `Quick test_simulate_cancel_raises;
        Alcotest.test_case "batch completes in submission order" `Quick
          test_batch_completes;
        Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
        Alcotest.test_case "deadline fires mid-DD-phase" `Quick test_deadline_dd_phase;
        Alcotest.test_case "deadline fires mid-DMAV-phase" `Quick
          test_deadline_dmav_phase;
        Alcotest.test_case "retry with downgrade" `Quick test_retry_with_downgrade;
        Alcotest.test_case "raising runner keeps the slot" `Quick
          test_raising_runner_keeps_slot;
        Alcotest.test_case "shutdown drops queued jobs" `Quick test_shutdown_drops_queued;
        Alcotest.test_case "submit after shutdown rejected" `Quick
          test_submit_after_shutdown;
        Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_id_rejected;
        Alcotest.test_case "interrupt cancels whole batch" `Quick
          test_interrupt_cancels_batch;
        Alcotest.test_case "interrupt lands mid-run" `Quick test_interrupt_mid_run;
        Alcotest.test_case "50-job stress matches sequential" `Slow
          test_stress_matches_sequential;
        Alcotest.test_case "idle tenants cost nothing" `Quick test_idle_tenants_cost_nothing ] );
    ( "taskq",
      [ Alcotest.test_case "priority order" `Quick test_queue_priority_order;
        Alcotest.test_case "fifo within a priority" `Quick
          test_queue_fifo_within_priority;
        Alcotest.test_case "many tasks all run" `Quick test_queue_many_jobs_all_run ] ) ]

(* The DRR tests, listed by test_serve.ml under their "serve tenant drr"
   group name beside the daemon's quota test. *)
let drr_cases =
  [ Alcotest.test_case "interleaves tenants" `Quick test_drr_interleaves_tenants;
    Alcotest.test_case "weights by cost" `Quick test_drr_weights_by_cost;
    Alcotest.test_case "head above quantum dispatches" `Quick test_drr_head_above_quantum ]
