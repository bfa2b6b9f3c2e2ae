(* Batch-scheduler throughput experiment: the same mixed job suite run
   sequentially (one job at a time over the pool) and through the
   scheduler at increasing slot counts, all over one shared pool. On
   multi-core hosts the slot sweep shows DD phases of different jobs
   overlapping while the wide DMAV/conversion phases serialize on pool
   admission; the aggregate queue-wait and run statistics come from the
   same sched.* instruments the batch CLI exports. *)

let jobs () =
  let mk i (family, n, gates) =
    let seed = Rng.derive 42 i in
    let circuit = Suite.generate ?gates ~seed family ~n in
    Sched.job ~id:(Printf.sprintf "%s-%d" (Suite.family_name family) i) circuit
  in
  List.mapi mk
    [ (Suite.Ghz, 14, None);
      (Suite.Qft, 12, None);
      (Suite.Supremacy, 12, Some 240);
      (Suite.Grover, 10, None);
      (Suite.Bv, 14, None);
      (Suite.Supremacy, 13, Some 200);
      (Suite.Vqe, 11, None);
      (Suite.Adder, 12, None);
      (Suite.Qpe, 11, None);
      (Suite.Supremacy, 11, Some 300);
      (Suite.Swap_test, 11, None);
      (Suite.Dnn, 10, Some 400) ]

let run () =
  Report.section "Batch scheduler throughput (shared pool, slot sweep)";
  let threads = Workloads.threads_default in
  Pool.with_pool threads (fun pool ->
      let batch = jobs () in
      let completed results =
        List.for_all
          (fun r -> match r.Sched.outcome with Sched.Completed _ -> true | _ -> false)
          results
      in
      let sequential () =
        List.map
          (fun (j : Sched.job) ->
             let r = Driver.run ~pool j.Sched.config j.Sched.circuit in
             { Sched.job = j; outcome = Sched.Completed r; queue_wait_s = 0.0;
               run_s = r.Driver.seconds_total; attempts = 1; downgraded = false })
          batch
      in
      let rows = ref [] in
      let measure name f =
        let results, dt = Timer.time f in
        let ok = if completed results then "yes" else "NO" in
        rows :=
          [ name;
            Printf.sprintf "%.3f" dt;
            Printf.sprintf "%.1f" (float_of_int (List.length results) /. dt);
            ok ]
          :: !rows
      in
      measure "sequential" sequential;
      List.iter
        (fun slots ->
           measure
             (Printf.sprintf "sched slots=%d" slots)
             (fun () -> Sched.run_jobs ~pool ~slots batch))
        [ 1; 2; 4 ];
      Report.table ~title:(Printf.sprintf "%d mixed jobs, %d-worker pool" (List.length (jobs ())) threads)
        ~header:[ "mode"; "seconds"; "jobs/s"; "all completed" ]
        (List.rev !rows))
