(* flatdd_serve — the persistent simulation daemon.

   Listens on a Unix-domain socket for qcs_serve/v1 clients (see
   flatdd_batch --connect), runs jobs with deficit-round-robin tenant
   fairness, each on its own fresh engine state, and journals every
   accepted job to an atomically-rewritten checkpoint file so a kill -9
   loses nothing: the next start re-runs pending jobs from their pinned
   seeds and replays completed results verbatim. SIGINT/SIGTERM stop it
   gracefully. *)

open Cmdliner

let run socket slots threads seed journal journal_tail quantum quota strict quiet
    metrics_json =
  Obs.set_enabled true;
  let log m = if not quiet then Printf.eprintf "flatdd_serve: %s\n%!" m in
  let cfg =
    { Serve.default_config with
      Serve.socket_path = socket;
      slots;
      pool_threads = threads;
      base_seed = seed;
      journal_path = journal;
      journal_tail;
      quantum;
      quota;
      strict;
      log }
  in
  let at_least_one flag name v =
    if v < 1 then invalid_arg (Printf.sprintf "%s: %s must be >= 1 (got %d)" flag name v)
  in
  match
    at_least_one "-s" "slots" slots;
    at_least_one "-t" "threads" threads;
    Serve.create cfg
  with
  | t ->
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.stop t)))
      [ Sys.sigint; Sys.sigterm ];
    Serve.run t;
    (match metrics_json with
     | None -> ()
     | Some path ->
       Obs.Metrics.write_file path (Obs.Metrics.snapshot ());
       if not quiet then Printf.eprintf "flatdd_serve: metrics written to %s\n%!" path);
    0
  | exception (Journal.Error m | Invalid_argument m) ->
    Printf.eprintf "error: %s\n" m;
    1
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s %s\n" (Unix.error_message e) fn arg;
    1

let cmd =
  let socket =
    Arg.(value & opt string "flatdd.sock"
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let slots =
    Arg.(value & opt int 2
         & info [ "s"; "slots" ] ~doc:"Concurrently running jobs (runner domains).")
  in
  let threads =
    Arg.(value & opt int 2
         & info [ "t"; "threads" ] ~doc:"Workers in the shared simulation pool.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~doc:"Base seed for jobs submitted without one (splitmix-derived per accept index).")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Checkpoint file for accepted jobs (atomic rewrite on every change); restart resumes from it. Omit to disable durability.")
  in
  let journal_tail =
    Arg.(value & opt int 1024
         & info [ "journal-tail" ] ~docv:"N"
             ~doc:"Completed entries retained in the journal beyond the pending set; older done entries are compacted away (their ids re-run deterministically on resubmit). Also bounds in-memory state when --journal is omitted.")
  in
  let quantum =
    Arg.(value & opt int 64
         & info [ "quantum" ] ~doc:"Deficit-round-robin quantum, in gates per tenant visit.")
  in
  let quota =
    Arg.(value & opt int 0
         & info [ "quota" ] ~doc:"Max queued+running jobs per tenant; 0 disables the bound.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Reject job lines with unknown manifest fields instead of skipping them.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stderr log.") in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Write the process-lifetime qcs_obs metrics snapshot to $(docv) on shutdown.")
  in
  let term =
    Term.(const run $ socket $ slots $ threads $ seed $ journal $ journal_tail $ quantum
          $ quota $ strict $ quiet $ metrics_json)
  in
  Cmd.v
    (Cmd.info "flatdd_serve"
       ~doc:"Persistent multi-tenant simulation daemon with a crash-safe job journal")
    term

let () = exit (Cmd.eval' cmd)
