(* flatdd_batch — batched multi-circuit driver.

   Reads a JSONL manifest (one job per line: a named suite circuit or a
   QASM path, plus per-job config/priority/deadline/retry overrides),
   schedules every job over one shared worker pool with [slots]
   concurrent runners, and emits a JSONL result stream in manifest order
   (deterministic for a fixed manifest) plus an optional qcs_obs metrics
   snapshot. Progress streams to stderr as jobs resolve.

   SIGINT/SIGTERM interrupt the batch gracefully: running jobs resolve as
   cancelled within one gate, the result stream is still written
   atomically with whatever completed, and the exit status is 130.

   With --connect SOCKET the jobs run in a flatdd_serve daemon instead of
   in-process: the manifest is parsed locally (same ids, same derived
   seeds), shipped over the socket, and the streamed result lines are
   written in manifest order — byte-identical to a local run with the
   same flags (use --no-timings for a fully deterministic stream). *)

open Cmdliner

let progress verbose jr =
  if verbose then
    Printf.eprintf "[%s] %s (attempts %d%s, %.3fs)\n%!"
      (Sched.outcome_name jr.Sched.outcome)
      jr.Sched.job.Sched.id jr.Sched.attempts
      (if jr.Sched.downgraded then ", downgraded" else "")
      jr.Sched.run_s

let summarize results =
  let count o =
    List.length
      (List.filter (fun jr -> Sched.outcome_name jr.Sched.outcome = o) results)
  in
  Printf.eprintf "batch: %d jobs — %d completed, %d failed, %d timed_out, %d cancelled\n%!"
    (List.length results) (count "completed") (count "failed") (count "timed_out")
    (count "cancelled")

(* Run the batch in-process over one shared pool, interruptibly: a first
   SIGINT/SIGTERM trips every job's cancel poll (one atomic store — the
   only thing the handler does), the drain still returns every result,
   and the stream is written as usual. *)
let run_local ~verbose ~slots ~threads resolved =
  Pool.with_pool threads (fun pool ->
      let sched =
        Sched.create ~on_result:(progress verbose) ~paused:true ~pool ~slots ()
      in
      let previous =
        List.map
          (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> Sched.interrupt sched))))
          [ Sys.sigint; Sys.sigterm ]
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (s, h) -> Sys.set_signal s h) previous;
          Sched.shutdown sched)
        (fun () ->
           List.iter (fun r -> Sched.submit sched r.Manifest.job) resolved;
           Sched.start sched;
           let results = Sched.drain sched in
           (results, Sched.interrupted sched)))

(* Count outcomes out of raw result lines (the daemon path has no
   Sched.job_result values to inspect). *)
let line_outcome line =
  match Obs.Metrics.parse_json line with
  | Obs.Metrics.Jobj kvs ->
    (match List.assoc_opt "outcome" kvs with
     | Some (Obs.Metrics.Jstr o) -> o
     | _ -> "unknown")
  | _ | (exception Obs.Metrics.Parse_error _) -> "unknown"

let run manifest slots threads seed out no_timings strict verbose metrics metrics_json
    order precision connect tenant =
  try
    let metrics_wanted = metrics || metrics_json <> None in
    if metrics_wanted then begin
      Obs.set_enabled true;
      Obs.Metrics.reset ()
    end;
    let default_config = { Config.default with Config.order; precision } in
    let text, outcomes, interrupted =
      match connect with
      | Some socket_path ->
        let pairs =
          Client.run_manifest ~default_config ~base_seed:seed ?tenant
            ~timings:(not no_timings) ~retry_for:5.0 ~socket_path manifest
        in
        if pairs = [] then begin
          Printf.eprintf "error: manifest %s contains no jobs\n" manifest;
          raise Exit
        end;
        Printf.eprintf "batch: %d jobs via daemon at %s (base seed %d)\n%!"
          (List.length pairs) socket_path seed;
        let lines = List.map snd pairs in
        (String.concat "" (List.map (fun l -> l ^ "\n") lines),
         List.map line_outcome lines, false)
      | None ->
        let resolved = Manifest.load ~default_config ~base_seed:seed manifest in
        if resolved = [] then begin
          Printf.eprintf "error: manifest %s contains no jobs\n" manifest;
          raise Exit
        end;
        Printf.eprintf "batch: %d jobs, %d slots over a %d-worker pool (base seed %d)\n%!"
          (List.length resolved) slots threads seed;
        let results, interrupted = run_local ~verbose ~slots ~threads resolved in
        summarize results;
        (Manifest.result_lines ~timings:(not no_timings) (List.combine resolved results),
         List.map (fun jr -> Sched.outcome_name jr.Sched.outcome) results,
         interrupted)
    in
    (match out with
     | "-" -> print_string text
     | path ->
       Obs.atomic_write_file path text;
       Printf.eprintf "results written to %s\n%!" path);
    if metrics_wanted then begin
      let snap = Obs.Metrics.snapshot () in
      (match metrics_json with
       | None -> ()
       | Some path ->
         Obs.Metrics.write_file path snap;
         Printf.eprintf "metrics written to %s\n%!" path);
      if metrics then begin
        Printf.eprintf "\n== metrics (%s) ==\n" Obs.Metrics.schema;
        prerr_string (Obs.Metrics.to_text snap)
      end
    end;
    let incomplete = List.filter (fun o -> o <> "completed") outcomes in
    if interrupted then begin
      Printf.eprintf "batch: interrupted — partial results written\n%!";
      130
    end
    else if strict && incomplete <> [] then begin
      Printf.eprintf "strict: %d job(s) did not complete\n" (List.length incomplete);
      2
    end
    else 0
  with
  | Exit -> 1
  | Manifest.Error m | Client.Error m | Invalid_argument m | Sys_error m ->
    Printf.eprintf "error: %s\n" m;
    1
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
    1

let cmd =
  let manifest =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"MANIFEST" ~doc:"JSONL manifest, one job object per line.")
  in
  let slots =
    Arg.(value & opt int 2
         & info [ "s"; "slots" ] ~doc:"Concurrent jobs (runner domains).")
  in
  let threads =
    Arg.(value & opt int 4
         & info [ "t"; "threads" ] ~doc:"Workers in the shared simulation pool.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Base seed; jobs without an explicit seed derive theirs from it (splitmix).")
  in
  let out =
    Arg.(value & opt string "-"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Result JSONL destination (atomic write; - for stdout).")
  in
  let no_timings =
    Arg.(value & flag
         & info [ "no-timings" ] ~doc:"Omit the *_s timing fields, making the result stream byte-deterministic.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit with status 2 unless every job completed.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Stream per-job progress to stderr.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Enable the instrumentation layer and print a metrics summary to stderr.")
  in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE" ~doc:"Enable the instrumentation layer and write the snapshot as JSON to $(docv).")
  in
  let order =
    let order_c =
      let parse s =
        match Config.order_of_name s with
        | Some o -> Ok o
        | None -> Error (`Msg "order is none | static")
      in
      let print fmt o = Format.pp_print_string fmt (Config.order_name o) in
      Arg.conv (parse, print)
    in
    Arg.(value & opt order_c Config.No_order
         & info [ "order" ]
             ~doc:"Default qubit-order policy — none or static — for \
                   every job (a job's own $(i,order) manifest field overrides \
                   it). Fingerprints are logical-basis and order-invariant.")
  in
  let precision =
    let precision_c =
      let parse s =
        match Config.precision_of_name s with
        | Some p -> Ok p
        | None -> Error (`Msg "precision is f64 | f32")
      in
      let print fmt p = Format.pp_print_string fmt (Config.precision_name p) in
      Arg.conv (parse, print)
    in
    Arg.(value & opt precision_c Config.F64
         & info [ "precision" ]
             ~doc:"Default amplitude-plane precision — f64 or f32 — for every \
                   job (a job's own $(i,precision) manifest field overrides \
                   it). f64 results are bit-identical to previous releases; \
                   f32 halves flat-phase buffer bytes and rounds only on \
                   stores into the flat vectors.")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCKET"
             ~doc:"Run the jobs in the flatdd_serve daemon listening on $(docv) instead of in-process; ids and seeds are pinned locally so the results match a local run byte-for-byte.")
  in
  let tenant =
    Arg.(value & opt (some string) None
         & info [ "tenant" ] ~docv:"NAME"
             ~doc:"Tenant to submit under with --connect (jobs with their own $(i,tenant) field keep it).")
  in
  let term =
    Term.(const run $ manifest $ slots $ threads $ seed $ out $ no_timings $ strict
          $ verbose $ metrics $ metrics_json $ order $ precision $ connect
          $ tenant)
  in
  Cmd.v
    (Cmd.info "flatdd_batch"
       ~doc:"Run a manifest of simulation jobs over one shared pool with priorities, deadlines and retries")
    term

let () = exit (Cmd.eval' cmd)
