let test_run_covers_all_workers () =
  Pool.with_pool 4 (fun pool ->
      let seen = Array.make 4 false in
      Pool.run pool (fun w -> seen.(w) <- true);
      Array.iteri
        (fun i s -> Alcotest.(check bool) (Printf.sprintf "worker %d ran" i) true s)
        seen)

let test_run_single_inline () =
  Pool.with_pool 1 (fun pool ->
      let ran = ref false in
      Pool.run pool (fun w ->
          Alcotest.(check int) "only worker 0" 0 w;
          ran := true);
      Alcotest.(check bool) "ran" true !ran)

let test_parallel_for_sum () =
  Pool.with_pool 4 (fun pool ->
      let n = 10_000 in
      let acc = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> acc.(i) <- i);
      let total = Array.fold_left ( + ) 0 acc in
      Alcotest.(check int) "sum" (n * (n - 1) / 2) total)

let test_parallel_for_each_once () =
  Pool.with_pool 3 (fun pool ->
      let n = 5000 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~chunk:7 pool ~lo:0 ~hi:n (fun i ->
          Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
           if Atomic.get c <> 1 then
             Alcotest.failf "index %d executed %d times" i (Atomic.get c))
        counts)

let test_parallel_for_empty () =
  Pool.with_pool 2 (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> hit := true);
      Pool.parallel_for pool ~lo:9 ~hi:3 (fun _ -> hit := true);
      Alcotest.(check bool) "no iterations" false !hit)

let test_parallel_for_ranges_partition () =
  Pool.with_pool 4 (fun pool ->
      let n = 4096 in
      let marks = Array.make n 0 in
      Pool.parallel_for_ranges ~chunk:100 pool ~lo:0 ~hi:n (fun a b ->
          for i = a to b - 1 do
            marks.(i) <- marks.(i) + 1
          done);
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d hit %d times" i c)
        marks)

let test_exception_propagates () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.check_raises "failure surfaces" (Failure "boom") (fun () ->
          Pool.run pool (fun w -> if w = 2 then failwith "boom"));
      (* The pool must remain usable after a failed job. *)
      let acc = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr acc);
      Alcotest.(check int) "pool survives" 4 (Atomic.get acc))

let test_exception_on_caller () =
  Pool.with_pool 2 (fun pool ->
      Alcotest.check_raises "caller failure surfaces" (Failure "caller") (fun () ->
          Pool.run pool (fun w -> if w = 0 then failwith "caller")))

let test_reuse_many_jobs () =
  Pool.with_pool 3 (fun pool ->
      let total = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.run pool (fun _ -> Atomic.incr total)
      done;
      Alcotest.(check int) "600 executions" 600 (Atomic.get total))

let test_shutdown_idempotent () =
  let pool = Pool.create 2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check pass) "no deadlock" () ()

let test_size () =
  Pool.with_pool 5 (fun pool -> Alcotest.(check int) "size" 5 (Pool.size pool));
  Alcotest.check_raises "size >= 1" (Invalid_argument "Pool.create: size must be >= 1")
    (fun () -> ignore (Pool.create 0))

let test_nested_data_parallelism () =
  (* Two sequential parallel_fors writing to the same array: the second
     must observe the first's writes (barrier semantics). *)
  Pool.with_pool 4 (fun pool ->
      let n = 2048 in
      let a = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> a.(i) <- i);
      let b = Array.make n 0 in
      Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> b.(i) <- a.(i) * 2);
      Alcotest.(check int) "last" ((n - 1) * 2) b.(n - 1);
      Alcotest.(check int) "first" 0 b.(0);
      Alcotest.(check int) "middle" 1024 b.(512))

(* ---- stress cases -------------------------------------------------- *)

let test_oversubscribed_parallel_for () =
  (* Far more chunks than workers, chunk size 1: the atomic cursor hands out
     30k single-index chunks and every index must still run exactly once. *)
  Pool.with_pool 3 (fun pool ->
      let n = 30_000 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n (fun i -> Atomic.incr counts.(i));
      Array.iteri
        (fun i c ->
           if Atomic.get c <> 1 then
             Alcotest.failf "index %d executed %d times" i (Atomic.get c))
        counts)

let test_oversubscribed_pool () =
  (* More domains than cores: jobs must still join correctly. *)
  let workers = (2 * Domain.recommended_domain_count ()) + 1 in
  Pool.with_pool workers (fun pool ->
      let acc = Atomic.make 0 in
      for _ = 1 to 20 do
        Pool.run pool (fun _ -> Atomic.incr acc)
      done;
      Alcotest.(check int) "all jobs ran" (20 * workers) (Atomic.get acc))

let test_nested_pools () =
  (* An inner pool created inside an outer pool's job: the inner fork-join
     must complete without deadlocking the outer barrier. *)
  Pool.with_pool 3 (fun outer ->
      let total = Atomic.make 0 in
      Pool.run outer (fun _ ->
          Pool.with_pool 2 (fun inner ->
              Pool.parallel_for inner ~lo:0 ~hi:100 (fun _ -> Atomic.incr total)));
      Alcotest.(check int) "3 outer x 100 inner" 300 (Atomic.get total))

let test_exception_in_parallel_for () =
  Pool.with_pool 4 (fun pool ->
      Alcotest.check_raises "parallel_for failure surfaces" (Failure "mid-loop")
        (fun () ->
           Pool.parallel_for pool ~lo:0 ~hi:10_000 (fun i ->
               if i = 7321 then failwith "mid-loop"));
      (* The pool must stay usable for both job styles afterwards. *)
      let acc = Atomic.make 0 in
      Pool.parallel_for pool ~lo:0 ~hi:1000 (fun _ -> Atomic.incr acc);
      Alcotest.(check int) "parallel_for survives" 1000 (Atomic.get acc);
      let ran = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr ran);
      Alcotest.(check int) "run survives" 4 (Atomic.get ran))

let test_repeated_exceptions () =
  (* Exceptions on different workers across many jobs must not corrupt the
     pool's job state (stale exception resurfacing on a later join). *)
  Pool.with_pool 4 (fun pool ->
      for round = 1 to 10 do
        let msg = Printf.sprintf "round %d" round in
        Alcotest.check_raises msg (Failure msg) (fun () ->
            Pool.run pool (fun w -> if w = round mod 4 then failwith msg))
      done;
      let acc = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr acc);
      Alcotest.(check int) "clean job after 10 failures" 4 (Atomic.get acc))

let test_concurrent_callers_share_pool () =
  (* Several domains driving the same pool at once: the admission mutex
     must serialize whole jobs, so every parallel_for still executes each
     index exactly once and the totals add up. *)
  Pool.with_pool 3 (fun pool ->
      let total = Atomic.make 0 in
      let callers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 25 do
                  Pool.parallel_for pool ~lo:0 ~hi:100 (fun _ -> Atomic.incr total)
                done))
      in
      List.iter Domain.join callers;
      Alcotest.(check int) "4 callers x 25 jobs x 100 iterations" 10_000
        (Atomic.get total))

let test_concurrent_caller_exceptions_isolated () =
  (* A failing job from one caller must not leak its exception into a
     concurrent caller's job. *)
  Pool.with_pool 2 (fun pool ->
      let ok = Atomic.make 0 in
      let failures = Atomic.make 0 in
      let callers =
        List.init 3 (fun c ->
            Domain.spawn (fun () ->
                for round = 1 to 20 do
                  if c = 0 && round mod 2 = 0 then
                    (try Pool.run pool (fun _ -> failwith "bad job") with
                     | Failure m when m = "bad job" -> Atomic.incr failures)
                  else begin
                    Pool.run pool (fun _ -> ());
                    Atomic.incr ok
                  end
                done))
      in
      List.iter Domain.join callers;
      Alcotest.(check int) "every failing job raised in its own caller" 10
        (Atomic.get failures);
      Alcotest.(check int) "clean jobs unaffected" 50 (Atomic.get ok))

(* ---- spin-then-park hand-off --------------------------------------- *)

(* Longer than the spin window (about 20 us), so the next hand-off
   finds the other side parked on its condvar. *)
let nap () = Unix.sleepf 0.0005

let test_back_to_back_with_naps () =
  (* Thousands of jobs: most posted while the workers still spin, some
     after the caller napped (workers parked), some where a worker naps
     inside its share (the caller parks for the join). *)
  Pool.with_pool 3 (fun pool ->
      let total = Atomic.make 0 in
      for i = 1 to 3000 do
        if i mod 250 = 0 then nap ();
        Pool.run pool (fun w ->
            if i mod 250 = 125 && w = 2 then nap ();
            Atomic.incr total)
      done;
      Alcotest.(check int) "3000 jobs x 3 workers" 9000 (Atomic.get total))

let test_exceptions_both_sides () =
  Pool.with_pool 2 (fun pool ->
      (* Caller and worker fail in the same job: the caller's wins. *)
      Alcotest.check_raises "caller's exception first" (Failure "caller") (fun () ->
          Pool.run pool (fun w -> failwith (if w = 0 then "caller" else "worker")));
      (* A worker that fails after the caller parked for the join. *)
      Alcotest.check_raises "late worker failure" (Failure "late") (fun () ->
          Pool.run pool (fun w ->
              if w = 1 then begin
                nap ();
                failwith "late"
              end));
      (* A failure after the workers parked between jobs. *)
      nap ();
      Alcotest.check_raises "failure from a parked start" (Failure "parked") (fun () ->
          Pool.run pool (fun w -> if w = 1 then failwith "parked"));
      let acc = Atomic.make 0 in
      for _ = 1 to 100 do
        Pool.run pool (fun _ -> Atomic.incr acc)
      done;
      Alcotest.(check int) "pool reusable" 200 (Atomic.get acc))

let test_shutdown_while_spinning () =
  (* Shut down straight after a job, while the workers still spin for the
     next one, and after they parked. *)
  for k = 1 to 50 do
    let pool = Pool.create 3 in
    let acc = Atomic.make 0 in
    Pool.run pool (fun _ -> Atomic.incr acc);
    if k mod 10 = 0 then nap ();
    Pool.shutdown pool;
    Alcotest.(check int) "job ran before shutdown" 3 (Atomic.get acc)
  done;
  let pool = Pool.create 2 in
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown" (Invalid_argument "Pool.run: pool is shut down")
    (fun () -> Pool.run pool ignore)

let test_two_domains_share_pool () =
  (* Two domains drive one pool, one napping between its jobs, so jobs
     arrive both while the workers spin and while they are parked. *)
  Pool.with_pool 2 (fun pool ->
      let total = Atomic.make 0 in
      let caller napper =
        Domain.spawn (fun () ->
            for i = 1 to 500 do
              if napper && i mod 50 = 0 then nap ();
              Pool.run pool (fun _ -> Atomic.incr total)
            done)
      in
      let a = caller false and b = caller true in
      Domain.join a;
      Domain.join b;
      Alcotest.(check int) "2 callers x 500 jobs x 2 workers" 2000 (Atomic.get total))

(* ---- FLATDD_CHECK ownership checker -------------------------------- *)

let with_check mode f =
  Check.set_mode mode;
  Fun.protect
    ~finally:(fun () ->
        Check.set_mode Check.Off;
        Check.reset ())
    f

let test_check_region_overlap_counts () =
  with_check Check.Count (fun () ->
      let r = Check.region ~name:"test" in
      Check.claim r ~owner:1 ~lo:0 ~hi:10;
      Check.claim r ~owner:1 ~lo:0 ~hi:10;   (* same owner may re-claim *)
      Check.claim r ~owner:2 ~lo:10 ~hi:20;  (* disjoint neighbour is fine *)
      Alcotest.(check int) "no race yet" 0 (Check.races ());
      Check.claim r ~owner:2 ~lo:5 ~hi:12;   (* overlaps owner 1's range *)
      Alcotest.(check int) "race recorded, not raised" 1 (Check.races ());
      Alcotest.(check int) "all claims counted" 4 (Check.claims ()))

let test_check_region_overlap_aborts () =
  with_check Check.Abort (fun () ->
      let r = Check.region ~name:"test" in
      Check.claim r ~owner:1 ~lo:0 ~hi:10;
      let raised =
        try Check.claim r ~owner:2 ~lo:9 ~hi:11; false with Check.Race _ -> true
      in
      Alcotest.(check bool) "overlap raises in abort mode" true raised)

let test_check_off_is_silent () =
  (* Mode Off: claims are not even recorded, so the hot path stays free. *)
  let r = Check.region ~name:"test" in
  Check.claim r ~owner:1 ~lo:0 ~hi:10;
  Check.claim r ~owner:2 ~lo:0 ~hi:10;
  Alcotest.(check int) "no claims tracked" 0 (Check.claims ());
  Alcotest.(check int) "no races tracked" 0 (Check.races ())

let test_check_parallel_for_clean () =
  with_check Check.Abort (fun () ->
      Pool.with_pool 3 (fun pool ->
          let n = 10_000 in
          let a = Array.make n 0 in
          Pool.parallel_for ~chunk:16 pool ~lo:0 ~hi:n (fun i -> a.(i) <- i);
          Alcotest.(check int) "disjoint chunks, no races" 0 (Check.races ());
          Alcotest.(check bool) "chunk claims were recorded" true
            (Check.claims () > 0)))

let test_check_reentrant_admission () =
  with_check Check.Abort (fun () ->
      Pool.with_pool 2 (fun pool ->
          let raised =
            try
              Pool.run pool (fun _ -> Pool.run pool (fun _ -> ()));
              false
            with Check.Race _ -> true
          in
          Alcotest.(check bool) "same-pool re-entry detected" true raised;
          Alcotest.(check bool) "re-entries counted" true (Check.reentries () > 0);
          (* Nesting a *different* pool is legitimate and must stay silent. *)
          let total = Atomic.make 0 in
          Pool.run pool (fun _ ->
              Pool.with_pool 2 (fun inner ->
                  Pool.run inner (fun _ -> Atomic.incr total)));
          Alcotest.(check int) "distinct pools nest" 4 (Atomic.get total)))

let test_check_workspace_double_give () =
  with_check Check.Abort (fun () ->
      let ws = Dmav.workspace ~n:4 in
      let b = Dmav.take ws in
      Dmav.return_buffers (Some ws) [ b ];
      let raised = try Dmav.return_buffers (Some ws) [ b ]; false with Check.Race _ -> true in
      Alcotest.(check bool) "double give detected" true raised)

let suite =
  [ ( "pool",
      [ Alcotest.test_case "run covers all workers" `Quick test_run_covers_all_workers;
        Alcotest.test_case "size-1 pool runs inline" `Quick test_run_single_inline;
        Alcotest.test_case "parallel_for computes all" `Quick test_parallel_for_sum;
        Alcotest.test_case "parallel_for executes each index once" `Quick
          test_parallel_for_each_once;
        Alcotest.test_case "parallel_for empty ranges" `Quick test_parallel_for_empty;
        Alcotest.test_case "parallel_for_ranges partitions" `Quick
          test_parallel_for_ranges_partition;
        Alcotest.test_case "worker exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "caller exception propagates" `Quick test_exception_on_caller;
        Alcotest.test_case "many sequential jobs" `Quick test_reuse_many_jobs;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "size and validation" `Quick test_size;
        Alcotest.test_case "barrier between jobs" `Quick test_nested_data_parallelism;
        Alcotest.test_case "oversubscribed parallel_for" `Quick
          test_oversubscribed_parallel_for;
        Alcotest.test_case "oversubscribed pool" `Quick test_oversubscribed_pool;
        Alcotest.test_case "nested pools" `Quick test_nested_pools;
        Alcotest.test_case "exception in parallel_for" `Quick
          test_exception_in_parallel_for;
        Alcotest.test_case "repeated worker exceptions" `Quick
          test_repeated_exceptions;
        Alcotest.test_case "concurrent callers share one pool" `Quick
          test_concurrent_callers_share_pool;
        Alcotest.test_case "concurrent caller exceptions isolated" `Quick
          test_concurrent_caller_exceptions_isolated;
        Alcotest.test_case "back-to-back jobs with naps" `Quick test_back_to_back_with_naps;
        Alcotest.test_case "exceptions on caller and worker" `Quick test_exceptions_both_sides;
        Alcotest.test_case "shutdown while workers spin" `Quick test_shutdown_while_spinning;
        Alcotest.test_case "two domains share one pool" `Quick test_two_domains_share_pool ] );
    ( "check",
      [ Alcotest.test_case "region overlap in count mode" `Quick
          test_check_region_overlap_counts;
        Alcotest.test_case "region overlap in abort mode" `Quick
          test_check_region_overlap_aborts;
        Alcotest.test_case "off mode records nothing" `Quick test_check_off_is_silent;
        Alcotest.test_case "parallel_for chunks are race-free" `Quick
          test_check_parallel_for_clean;
        Alcotest.test_case "re-entrant admission refused" `Quick
          test_check_reentrant_admission;
        Alcotest.test_case "workspace double give refused" `Quick
          test_check_workspace_double_give ] ) ]
