(* The serve client: runs a qcs_sched/v1 manifest against a daemon and
   returns the result lines a local flatdd_batch run would have written.

   Determinism lives here, not in the daemon: the client parses the
   manifest locally (same code path as flatdd_batch), which fixes every
   job's id and splitmix-derived seed by physical line index, then ships
   each line with "id", "seed" and the effective "order"/"precision"
   pinned and any relative "qasm" path absolutized against the manifest
   directory.
   The daemon therefore computes the same bytes regardless
   of how many other clients' jobs interleave with ours — and a journal
   replay after a crash reuses the very same pinned lines. *)

exception Error of string

let failf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type connection = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  greeting : string;
}

(* Establishment includes the daemon's Hello greeting, not just the
   socket-level connect. A connect() into the listen backlog of a daemon
   that is being killed succeeds at the kernel level and is then reset
   when the dying listener's backlog is purged — observed as ECONNRESET
   (or instant EOF) on the first read. Treating the greeting as part of
   the handshake folds that restart race into the same retry loop as a
   refused connection, so a client started alongside a daemon restart
   rides through it. *)
let connect ?(retry_for = 0.0) ~socket_path () =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let retry e =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        Thread.delay 0.05;
        go ()
      end
      else raise e
    in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | exception (Unix.Unix_error
                   ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EAGAIN), _, _)
                 as e) ->
      retry e
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
    | () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (match input_line ic with
       | exception End_of_file ->
         retry (Error "daemon closed the connection during handshake")
       | exception Sys_error _ ->
         retry (Error "daemon reset the connection during handshake")
       | line ->
         (match Protocol.parse_frame line with
          | Protocol.Hello { server } -> { fd; ic; oc; greeting = server }
          | exception Protocol.Error m ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            failf "bad greeting from daemon: %s" m
          | _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            failf "daemon did not greet with a hello frame: %s" line))
  in
  go ()

let send_request c req =
  output_string c.oc (Protocol.render_request req);
  output_char c.oc '\n';
  flush c.oc

let read_frame c =
  match input_line c.ic with
  | exception End_of_file -> failf "connection closed by daemon"
  | line -> Protocol.parse_frame line

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let greeting c = c.greeting

(* --- manifest shipping ------------------------------------------------- *)

(* Pin id/seed (and optionally tenant) into a raw manifest line, and
   absolutize a relative qasm path against the manifest's directory so
   the daemon — whose cwd is its own — resolves the same file. *)
let pin_line ~dir ?tenant (r : Manifest.resolved) raw =
  let open Obs.Metrics in
  let kvs =
    match parse_json raw with
    | Jobj kvs -> kvs
    | _ | (exception Parse_error _) ->
      failf "internal: line for job %s re-parse failed" r.Manifest.job.Sched.id
  in
  let kvs = Protocol.set_field kvs "id" (Jstr r.Manifest.job.Sched.id) in
  let kvs = Protocol.set_field kvs "seed" (Jnum (string_of_int r.Manifest.seed)) in
  let kvs =
    match List.assoc_opt "qasm" kvs with
    | Some (Jstr path) when Filename.is_relative path ->
      (* Filename.concat does not special-case an absolute [dir], so only
         prefix the cwd when the manifest directory itself is relative. *)
      let base =
        if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
      in
      Protocol.set_field kvs "qasm" (Jstr (Filename.concat base path))
    | _ -> kvs
  in
  (* Config defaults that exist only client-side (--order, --precision)
     ride the wire as explicit fields, so the daemon's own defaults never
     silently override what this client's flags resolved to. *)
  let kvs =
    if List.mem_assoc "order" kvs then kvs
    else
      Protocol.set_field kvs "order"
        (Jstr (Config.order_name r.Manifest.job.Sched.config.Config.order))
  in
  let kvs =
    if List.mem_assoc "precision" kvs then kvs
    else
      Protocol.set_field kvs "precision"
        (Jstr (Config.precision_name r.Manifest.job.Sched.config.Config.precision))
  in
  let kvs =
    match tenant, List.assoc_opt "tenant" kvs with
    | Some tenant, None -> Protocol.set_field kvs "tenant" (Jstr tenant)
    | _ -> kvs
  in
  Protocol.render_obj kvs

(* Manifest walk matching Manifest.load: physical line indices, blank and
   #-comment lines skipped, each surviving line locally parsed (errors
   surface here with their line numbers, before anything is sent). *)
let load_pinned ?default_config ?base_seed ?strict ?tenant path =
  let dir = Filename.dirname path in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let rec go index acc seen =
         match input_line ic with
         | exception End_of_file -> List.rev acc
         | line ->
           let stripped = String.trim line in
           if stripped = "" || stripped.[0] = '#' then go (index + 1) acc seen
           else begin
             let r =
               Manifest.parse_line ?default_config ?base_seed ?strict ~dir ~index stripped
             in
             let id = r.Manifest.job.Sched.id in
             (* Same check (and message) as Manifest.load: a duplicate id
                would otherwise reach the daemon, run once, and map both
                manifest entries to the first job's result line. *)
             if List.mem id seen then
               failf "manifest line %d: duplicate job id %S" (index + 1) id;
             go (index + 1) ((r, pin_line ~dir ?tenant r stripped) :: acc) (id :: seen)
           end
       in
       go 0 [] [])

let run_manifest ?default_config ?base_seed ?strict ?tenant ?(timings = true)
    ?(retry_for = 0.0) ~socket_path path =
  let pinned = load_pinned ?default_config ?base_seed ?strict ?tenant path in
  let c = connect ~retry_for ~socket_path () in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
       send_request c (Protocol.Hello_req { timings; metrics = false; tenant });
       List.iter (fun (_, line) -> send_request c (Protocol.Job line)) pinned;
       send_request c Protocol.End_req;
       let results : (string, string) Hashtbl.t = Hashtbl.create 16 in
       let rec drain () =
         match read_frame c with
         | Protocol.Bye _ -> ()
         | Protocol.Result { id; line } ->
           Hashtbl.replace results id line;
           drain ()
         | Protocol.Rejected { id; reason } ->
           failf "daemon rejected %s: %s"
             (Option.value id ~default:"<line>") reason
         | Protocol.Hello _ | Protocol.Accepted _ | Protocol.Metrics _ | Protocol.Pong ->
           drain ()
       in
       drain ();
       List.map
         (fun ((r : Manifest.resolved), _) ->
            let id = r.Manifest.job.Sched.id in
            match Hashtbl.find_opt results id with
            | Some line -> (r, line)
            | None -> failf "daemon closed without a result for %s" id)
         pinned)
