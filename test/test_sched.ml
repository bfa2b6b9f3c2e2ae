(* Scheduler semantics: dispatch order, deadlines firing in either phase,
   retry-with-downgrade, cancellation (queued and running), pool reuse
   after cancellation, and a randomized batch cross-checked against
   sequential execution over the same pool. *)

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

let test_priority_ordering () =
  Pool.with_pool 1 (fun pool ->
      let started = ref [] in
      let runner ~cancel ~pool (job : Sched.job) =
        started := job.Sched.circuit.Circuit.name :: !started;
        Driver.run ~cancel ~pool job.Sched.config job.Sched.circuit
      in
      let mk id priority =
        let c = Suite.generate ~seed:1 Suite.Ghz ~n:5 in
        Sched.job ~priority ~id { c with Circuit.name = id }
      in
      (* run_jobs queues everything while paused, so one slot must dispatch
         strictly by (priority desc, submission asc). *)
      let jobs =
        [ mk "low-first" 0; mk "urgent-a" 9; mk "normal" 4; mk "urgent-b" 9;
          mk "low-second" 0 ]
      in
      let results = Sched.run_jobs ~runner ~pool ~slots:1 jobs in
      List.iter
        (fun jr -> Alcotest.(check string) "completed" "completed" (outcome_label jr))
        results;
      Alcotest.(check (list string)) "dispatch order"
        [ "urgent-a"; "urgent-b"; "normal"; "low-first"; "low-second" ]
        (List.rev !started))

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

let test_cancel_queued () =
  Pool.with_pool 1 (fun pool ->
      let t = Sched.create ~paused:true ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           let c = Suite.generate ~seed:1 Suite.Ghz ~n:6 in
           Sched.submit t (Sched.job ~id:"a" c);
           Sched.submit t (Sched.job ~id:"b" c);
           Alcotest.(check bool) "cancel queued" true (Sched.cancel t "b");
           Alcotest.(check bool) "unknown id" false (Sched.cancel t "nope");
           let results = Sched.drain t in
           Alcotest.(check (list string)) "a ran, b cancelled"
             [ "completed"; "cancelled" ]
             (List.map outcome_label results);
           let b = List.nth results 1 in
           Alcotest.(check int) "b never attempted" 0 b.Sched.attempts;
           Alcotest.(check bool) "cancel after resolution" false (Sched.cancel t "b")))

let test_cancel_running_pool_reusable () =
  Pool.with_pool 2 (fun pool ->
      let entered = Atomic.make false in
      let runner ~cancel ~pool (job : Sched.job) =
        Atomic.set entered true;
        Driver.run ~cancel ~pool job.Sched.config job.Sched.circuit
      in
      let t = Sched.create ~runner ~pool ~slots:1 () in
      Fun.protect
        ~finally:(fun () -> Sched.shutdown t)
        (fun () ->
           (* A long DD-phase job so the cancel lands mid-run. *)
           let slow = Suite.generate ~seed:3 ~gates:8000 Suite.Supremacy ~n:12 in
           Sched.submit t (Sched.job ~config:never_convert ~id:"victim" slow);
           while not (Atomic.get entered) do
             Domain.cpu_relax ()
           done;
           Alcotest.(check bool) "cancel running" true (Sched.cancel t "victim");
           (* The same scheduler and pool must keep working afterwards. *)
           Sched.submit t (Sched.job ~id:"next" (Suite.generate ~seed:1 Suite.Qft ~n:7));
           let results = Sched.drain t in
           Alcotest.(check (list string)) "cancelled then completed"
             [ "cancelled"; "completed" ]
             (List.map outcome_label results);
           Alcotest.(check int) "victim was running" 1
             (List.hd results).Sched.attempts))

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
        Alcotest.test_case "cancel queued job" `Quick test_cancel_queued;
        Alcotest.test_case "cancel running job, pool reusable" `Quick
          test_cancel_running_pool_reusable;
        Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_id_rejected;
        Alcotest.test_case "interrupt cancels whole batch" `Quick
          test_interrupt_cancels_batch;
        Alcotest.test_case "interrupt lands mid-run" `Quick test_interrupt_mid_run;
        Alcotest.test_case "50-job stress matches sequential" `Slow
          test_stress_matches_sequential ] ) ]
