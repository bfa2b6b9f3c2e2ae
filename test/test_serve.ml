(* The serve subsystem: wire protocol round-trips, per-tenant quota
   admission, the crash-safe journal (including the prefix-crash/restart
   property), warm engine-state reuse, and a full socketed daemon e2e —
   concurrent multi-tenant clients whose result streams must be
   byte-identical to a local flatdd_batch run. *)

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let in_temp_dir f =
  let dir = Filename.temp_file "serve_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* --- protocol ---------------------------------------------------------- *)

let test_frame_roundtrip () =
  let frames =
    [ Protocol.Hello { server = "x y" };
      Protocol.Accepted { id = "a\"b"; seed = -3; replay = true };
      Protocol.Rejected { id = None; reason = "line 1: nope" };
      Protocol.Rejected { id = Some "j"; reason = "quota" };
      Protocol.Result { id = "j"; line = {|{"schema":"qcs_sched/v1","p0":0.5}|} };
      Protocol.Pong;
      Protocol.Bye { results = 7 } ]
  in
  List.iter
    (fun f ->
       let rendered = Protocol.render_frame f in
       Alcotest.(check bool) "one line" false (String.contains rendered '\n');
       Alcotest.(check bool) "round-trips" true (Protocol.parse_frame rendered = f))
    frames

let test_request_roundtrip () =
  let reqs =
    [ Protocol.Hello_req { timings = false; metrics = true; tenant = Some "t" };
      Protocol.Metrics_req; Protocol.Ping; Protocol.End_req ]
  in
  List.iter
    (fun r ->
       Alcotest.(check bool) "round-trips" true
         (Protocol.parse_request (Protocol.render_request r) = r))
    reqs;
  (* A manifest line is a request too, passed through verbatim. *)
  let line = {|{"circuit":"ghz","n":4,"seed":9}|} in
  Alcotest.(check bool) "job passthrough" true
    (Protocol.parse_request line = Protocol.Job line);
  (match Protocol.parse_request {|{"op":"launch_missiles"}|} with
   | exception Protocol.Error _ -> ()
   | _ -> Alcotest.fail "unknown op must be rejected")

let test_set_field_pinning () =
  let open Obs.Metrics in
  let kvs =
    match parse_json {|{"circuit":"qft","n":6,"epsilon":1.25}|} with
    | Jobj kvs -> kvs
    | _ -> assert false
  in
  let kvs = Protocol.set_field kvs "id" (Jstr "a") in
  let kvs = Protocol.set_field kvs "n" (Jnum "7") in
  Alcotest.(check string) "append + replace, order and digits preserved"
    {|{"circuit":"qft","n":7,"epsilon":1.25,"id":"a"}|}
    (Protocol.render_obj kvs)

(* --- client-side pinning ----------------------------------------------- *)

let write_file_at path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let pinned_field pinned name =
  match Obs.Metrics.parse_json pinned with
  | Obs.Metrics.Jobj kvs ->
    (match List.assoc_opt name kvs with
     | Some (Obs.Metrics.Jstr s) -> s
     | Some (Obs.Metrics.Jnum s) -> s
     | _ -> Alcotest.failf "pinned line lacks %S: %s" name pinned)
  | _ -> Alcotest.failf "pinned line is not an object: %s" pinned

let test_pin_line_paths () =
  in_temp_dir (fun dir ->
      write_file_at (Filename.concat dir "mini.qasm")
        "OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];\n";
      let raw = {|{"id":"q","qasm":"mini.qasm","seed":5}|} in
      (* Absolute manifest dir: the pinned path is dir/mini.qasm, NOT
         cwd/dir/mini.qasm (Filename.concat does not special-case an
         absolute dir — regression). *)
      let r = Manifest.parse_line ~dir ~index:0 raw in
      let pinned = Client.pin_line ~dir r raw in
      Alcotest.(check string) "absolute dir absolutizes without a cwd prefix"
        (Filename.concat dir "mini.qasm") (pinned_field pinned "qasm");
      (* Relative manifest dir: prefixed by the cwd. *)
      let cwd = Sys.getcwd () in
      Sys.chdir dir;
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
           let r = Manifest.parse_line ~dir:"." ~index:0 raw in
           let pinned = Client.pin_line ~dir:"." r raw in
           Alcotest.(check string) "relative dir prefixed by cwd"
             (Filename.concat (Filename.concat (Sys.getcwd ()) ".") "mini.qasm")
             (pinned_field pinned "qasm")))

let test_pin_line_order () =
  (* Same wire rule for the qubit-order policy: the client's --order
     default must reach the daemon explicitly, and a per-line value
     wins. *)
  let default_config = { Config.default with Config.order = Config.Static_order } in
  let raw = {|{"id":"o","circuit":"qft","n":4,"seed":2}|} in
  let r = Manifest.parse_line ~default_config ~index:0 raw in
  Alcotest.(check string) "client default pinned into the line" "static"
    (pinned_field (Client.pin_line ~dir:"." r raw) "order");
  let raw = {|{"id":"o","circuit":"qft","n":4,"seed":2,"order":"none"}|} in
  let r = Manifest.parse_line ~default_config ~index:0 raw in
  Alcotest.(check string) "explicit line value preserved" "none"
    (pinned_field (Client.pin_line ~dir:"." r raw) "order")

let test_load_pinned_duplicate_ids () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "dup.jsonl" in
      write_file_at path
        "{\"id\":\"same\",\"circuit\":\"qft\",\"n\":4}\n\
         {\"id\":\"same\",\"circuit\":\"ghz\",\"n\":4}\n";
      match Client.load_pinned path with
      | exception Client.Error m ->
        Alcotest.(check string) "same line-numbered error as Manifest.load"
          {|manifest line 2: duplicate job id "same"|} m
      | _ -> Alcotest.fail "duplicate ids must be rejected client-side")

(* --- journal ----------------------------------------------------------- *)

let test_journal_roundtrip () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "j.jsonl" in
      let j = Journal.create ~path ~base_seed:7 () in
      Alcotest.(check int) "fresh index 0" 0 (Journal.take_index j);
      Alcotest.(check int) "fresh index 1" 1 (Journal.take_index j);
      ignore (Journal.accept j ~id:"a" ~tenant:"t" ~seed:11 ~line:{|{"x":1}|});
      ignore (Journal.accept j ~id:"b" ~tenant:"" ~seed:22 ~line:{|{"y":"z"}|});
      Journal.complete j ~id:"a" ~result:{|{"p0":0.5}|};
      (* Reload from disk: state, order and the monotonic index survive. *)
      let j2 = Journal.create ~path ~base_seed:7 () in
      Alcotest.(check int) "size" 2 (Journal.size j2);
      Alcotest.(check int) "index continues past restart" 2 (Journal.take_index j2);
      Alcotest.(check (list string)) "pending order" [ "b" ]
        (List.map (fun e -> e.Journal.e_id) (Journal.pending j2));
      (match Journal.find j2 "a" with
       | Some { Journal.e_state = Journal.Done r; e_seed = 11; _ } ->
         Alcotest.(check string) "stored result bytes" {|{"p0":0.5}|} r
       | _ -> Alcotest.fail "entry a must be done with seed 11");
      (match Journal.find j2 "b" with
       | Some { Journal.e_state = Journal.Pending; e_line; _ } ->
         Alcotest.(check string) "stored line bytes" {|{"y":"z"}|} e_line
       | _ -> Alcotest.fail "entry b must be pending");
      (match Journal.accept j2 ~id:"a" ~tenant:"" ~seed:0 ~line:"{}" with
       | exception Journal.Error _ -> ()
       | _ -> Alcotest.fail "duplicate accept must fail");
      (match Journal.create ~path ~base_seed:8 () with
       | exception Journal.Error _ -> ()
       | _ -> Alcotest.fail "base_seed mismatch must fail"))

(* Compaction: every mutation keeps all pending entries plus the newest
   [done_tail] completed ones, so the rewrite (and in-memory footprint)
   is bounded by traffic the daemon controls — while pending entries and
   the crash guarantee are untouched. *)
let test_journal_compaction () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let path = Filename.concat dir "jc.jsonl" in
          let dropped = Obs.counter "serve.journal.dropped_done" in
          let d0 = Obs.value dropped in
          let j = Journal.create ~path ~done_tail:2 ~base_seed:1 () in
          let ids = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
          List.iteri
            (fun i id ->
               ignore
                 (Journal.accept j ~id ~tenant:"" ~seed:i
                    ~line:(Printf.sprintf {|{"x":%d}|} i)))
            ids;
          List.iter
            (fun id -> Journal.complete j ~id ~result:(Printf.sprintf {|{"r":"%s"}|} id))
            [ "a"; "b"; "c"; "d" ];
          (* Newest 2 done survive (accept order), all pending survive. *)
          Alcotest.(check int) "size = pending + done_tail" 4 (Journal.size j);
          Alcotest.(check (list string)) "newest done tail, accept order"
            [ "c"; "d" ] (List.map fst (Journal.done_results j));
          Alcotest.(check (list string)) "pending never dropped" [ "e"; "f" ]
            (List.map (fun e -> e.Journal.e_id) (Journal.pending j));
          Alcotest.(check bool) "dropped id forgotten" true (Journal.find j "a" = None);
          Alcotest.(check bool) "dropped counted" true (Obs.value dropped >= d0 + 2);
          (* Retained bytes are exactly the uncompacted suffix. *)
          List.iter
            (fun (id, r) ->
               Alcotest.(check string) "retained result bytes intact"
                 (Printf.sprintf {|{"r":"%s"}|} id) r)
            (Journal.done_results j);
          (* Reload sees the compacted file; a dropped id can be accepted
             again (deterministic re-run, not replay). *)
          let j2 = Journal.create ~path ~done_tail:2 ~base_seed:1 () in
          Alcotest.(check int) "reload size" 4 (Journal.size j2);
          Alcotest.(check (list string)) "reload done tail" [ "c"; "d" ]
            (List.map fst (Journal.done_results j2));
          ignore (Journal.accept j2 ~id:"a" ~tenant:"" ~seed:0 ~line:{|{"x":0}|});
          (match Journal.find j2 "a" with
           | Some { Journal.e_state = Journal.Pending; _ } -> ()
           | _ -> Alcotest.fail "re-accepted dropped id must be pending");
          (* done_tail:0 keeps only pending; negative is rejected. *)
          let j3 = Journal.create ~done_tail:0 ~base_seed:1 () in
          ignore (Journal.accept j3 ~id:"z" ~tenant:"" ~seed:0 ~line:"{}");
          Journal.complete j3 ~id:"z" ~result:"{}";
          Alcotest.(check int) "done_tail 0 keeps nothing done" 0 (Journal.size j3);
          (match Journal.create ~done_tail:(-1) ~base_seed:1 () with
           | exception Journal.Error _ -> ()
           | _ -> Alcotest.fail "negative done_tail must be rejected")))

(* Satellite property: for ANY prefix of accepted jobs completed before a
   crash, reloading the journal and re-running the pending entries yields
   exactly the uninterrupted run's result set — no duplicated and no
   dropped job ids, byte-identical canonical lines. Runs both without
   compaction pressure (done_tail larger than the job set) and with an
   aggressive [done_tail]: compaction may forget old done entries but
   must never touch the pending suffix or the retained bytes. *)
let check_prefix_property ~done_tail () =
  let lines =
    [ {|{"circuit":"qft","n":5}|};
      {|{"circuit":"ghz","n":6}|};
      {|{"circuit":"supremacy","n":5,"gates":30}|};
      {|{"circuit":"qft","n":6,"policy":0}|} ]
  in
  let base_seed = 3 in
  (* Pin ids and seeds the way the daemon does on accept. *)
  let pinned =
    List.mapi
      (fun i raw ->
         let r = Manifest.parse_line ~base_seed ~index:i raw in
         (r.Manifest.job.Sched.id, r.Manifest.seed,
          Client.pin_line ~dir:"." r raw))
      lines
  in
  let run_one line =
    let r = Manifest.parse_line ~base_seed ~index:0 ~strict:false line in
    let result = Driver.run r.Manifest.job.Sched.config r.Manifest.job.Sched.circuit in
    Manifest.result_line ~timings:false ~seed:r.Manifest.seed
      { Sched.job = r.Manifest.job; outcome = Sched.Completed result;
        queue_wait_s = 0.0; run_s = 0.0; attempts = 1; downgraded = false }
  in
  (* Uninterrupted reference: every pinned line, run once. *)
  let reference =
    List.map (fun (id, _, line) -> (id, run_one line)) pinned
  in
  in_temp_dir (fun dir ->
      List.iteri
        (fun k _ ->
           let path = Filename.concat dir (Printf.sprintf "j%d.jsonl" k) in
           (* Life 1 accepts everything, completes the first k, crashes
              (we simply stop using the handle — every flush was atomic). *)
           let j1 = Journal.create ~path ~done_tail ~base_seed () in
           List.iter
             (fun (id, seed, line) -> ignore (Journal.accept j1 ~id ~tenant:"" ~seed ~line))
             pinned;
           List.iteri
             (fun i (id, _, _) ->
                if i < k then Journal.complete j1 ~id ~result:(List.assoc id reference))
             pinned;
           (* Life 2 reloads and re-runs exactly the pending suffix. *)
           let j2 = Journal.create ~path ~done_tail ~base_seed () in
           let pending = Journal.pending j2 in
           Alcotest.(check int) "pending = suffix" (List.length pinned - k)
             (List.length pending);
           List.iter
             (fun (e : Journal.entry) ->
                Journal.complete j2 ~id:e.Journal.e_id ~result:(run_one e.Journal.e_line))
             pending;
           (* Once everything has completed, the retained done entries
              are the newest [done_tail] by accept order — all of them
              when the tail is big enough — with untouched bytes. *)
           let final = Journal.done_results j2 in
           let all_ids = List.map (fun (id, _, _) -> id) pinned in
           let expected_ids =
             let total = List.length all_ids in
             List.filteri (fun i _ -> i >= total - done_tail) all_ids
           in
           Alcotest.(check (list string))
             (Printf.sprintf "prefix %d: retained ids exactly once, accept order" k)
             expected_ids (List.map fst final);
           List.iter
             (fun (id, line) ->
                Alcotest.(check string)
                  (Printf.sprintf "prefix %d: byte-identical result for %s" k id)
                  (List.assoc id reference) line)
             final)
        (() :: List.map (fun _ -> ()) pinned))

let test_checkpoint_prefix_property () = check_prefix_property ~done_tail:1024 ()
let test_checkpoint_prefix_compacted () = check_prefix_property ~done_tail:1 ()

(* --- warm engine state ------------------------------------------------- *)

(* The exact bits of every final amplitude. A DD final reads its
   package, so take these before the handle is released. *)
let amp_bits (r : Driver.result) =
  let a = Driver.amplitudes r in
  Array.init (2 * Buf.length a) (fun k ->
      Int64.bits_of_float (if k land 1 = 0 then Buf.get_re a (k / 2) else Buf.get_im a (k / 2)))

let test_warm_bit_identical () =
  with_obs (fun () ->
      let hits = Obs.counter "serve.warm_hits" in
      let misses = Obs.counter "serve.warm_misses" in
      let scrubs = Obs.counter "serve.warm_scrubs" in
      let circ_a = Suite.generate ~seed:5 Suite.Supremacy ~n:6 ~gates:40 in
      let circ_b = Suite.generate ~seed:9 Suite.Qft ~n:6 in
      let circ_c = Suite.generate ~seed:11 Suite.Vqe ~n:6 ~gates:80 in
      let cfg = { Config.default with Config.policy = Config.Convert_at 20 } in
      let cfg_fused = { cfg with Config.policy = Config.Convert_at 10; fusion = Config.Dmav_aware } in
      let cold_a = amp_bits (Driver.run cfg circ_a) in
      let cold_b =
        amp_bits (Driver.run { cfg with Config.policy = Config.Never_convert } circ_b)
      in
      let cold_c = amp_bits (Driver.run cfg_fused circ_c) in
      let w = Warm.create ~capacity:2 () in
      let h1 = Warm.acquire w ~tenant:"t1" ~n:6 () in
      let m0 = Obs.value misses in
      Alcotest.(check bool) "first acquire is a miss" true (m0 >= 1);
      let warm_a =
        amp_bits (Driver.run ~package:h1.Warm.package ~workspace:h1.Warm.workspace cfg circ_a)
      in
      Warm.release w h1;
      let h2 = Warm.acquire w ~tenant:"t1" ~n:6 () in
      Alcotest.(check bool) "second acquire hits" true (Obs.value hits >= 1);
      Alcotest.(check bool) "same handle reused" true (h2.Warm.package == h1.Warm.package);
      (* A different circuit on the reused package: bit-identical to cold,
         DD-final included (the reset cleared the canonicalization table). *)
      let warm_b =
        amp_bits
          (Driver.run ~package:h2.Warm.package ~workspace:h2.Warm.workspace
             { cfg with Config.policy = Config.Never_convert } circ_b)
      in
      Alcotest.(check bool) "warm flat run bit-identical" true (cold_a = warm_a);
      Alcotest.(check bool) "warm DD run bit-identical" true (cold_b = warm_b);
      Warm.release w h2;
      (* A third job on the handle, reset again: a DMAV-fused flat run,
         whose identity slots are reissued by the reset. *)
      let h2 = Warm.acquire w ~tenant:"t1" ~n:6 () in
      Alcotest.(check bool) "same handle reused again" true (h2.Warm.package == h1.Warm.package);
      let warm_c =
        amp_bits
          (Driver.run ~package:h2.Warm.package ~workspace:h2.Warm.workspace cfg_fused circ_c)
      in
      Alcotest.(check bool) "warm fused flat run bit-identical" true (cold_c = warm_c);
      Warm.release w h2;
      (* Tenant change scrubs the workspace buffers. *)
      let s0 = Obs.value scrubs in
      let h3 = Warm.acquire w ~tenant:"t2" ~n:6 () in
      Alcotest.(check bool) "cross-tenant acquire scrubs" true (Obs.value scrubs > s0);
      Warm.release w h3;
      (* Same-tenant re-acquire does not. *)
      let s1 = Obs.value scrubs in
      let h4 = Warm.acquire w ~tenant:"t2" ~n:6 () in
      Alcotest.(check int) "same-tenant acquire skips scrub" s1 (Obs.value scrubs);
      Warm.release w h4;
      (* A job that grows the handle's compute caches to the cap, then a
         small job on the same handle: the release shrank the caches back,
         and the small job is bit-identical to a cold run. *)
      let circ_big = Suite.generate ~seed:1 Suite.Dnn ~n:11 ~gates:130 in
      let circ_small = Suite.generate ~seed:3 Suite.Supremacy ~n:11 ~gates:30 in
      let cold_small = amp_bits (Driver.run cfg circ_small) in
      let h5 = Warm.acquire w ~tenant:"t3" ~n:11 () in
      ignore
        (Driver.run ~package:h5.Warm.package ~workspace:h5.Warm.workspace
           { cfg with Config.policy = Config.Never_convert } circ_big);
      Alcotest.(check int) "big job grew the caches to the cap" (1 lsl 16)
        (Dd.cache_slots h5.Warm.package);
      Warm.release w h5;
      let h6 = Warm.acquire w ~tenant:"t3" ~n:11 () in
      Alcotest.(check bool) "same handle after the big job" true
        (h6.Warm.package == h5.Warm.package);
      Alcotest.(check int) "release shrank the caches" (1 lsl 10)
        (Dd.cache_slots h6.Warm.package);
      let warm_small =
        amp_bits (Driver.run ~package:h6.Warm.package ~workspace:h6.Warm.workspace cfg circ_small)
      in
      Alcotest.(check bool) "small job after a big one bit-identical" true
        (cold_small = warm_small);
      Warm.release w h6)

let test_warm_eviction_and_sizing () =
  let w = Warm.create ~capacity:1 () in
  let h1 = Warm.acquire w ~n:4 () in
  let h2 = Warm.acquire w ~n:5 () in
  Warm.release w h1;
  Warm.release w h2;
  Alcotest.(check int) "capacity bounds idle list" 1 (Warm.idle_handles w);
  (* A mismatched qubit count is a miss even with an idle handle. *)
  let h3 = Warm.acquire w ~n:9 () in
  Alcotest.(check int) "n mismatch leaves idle handle alone" 1 (Warm.idle_handles w);
  Alcotest.(check int) "built for requested n" 9 h3.Warm.h_n;
  Warm.drop_all w;
  Alcotest.(check int) "drop_all empties" 0 (Warm.idle_handles w)

(* --- socketed daemon e2e ----------------------------------------------- *)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let local_reference ?(base_seed = 1) path =
  let resolved = Manifest.load ~base_seed path in
  let results =
    Pool.with_pool 2 (fun pool ->
        Sched.run_jobs ~pool ~slots:2 (List.map (fun r -> r.Manifest.job) resolved))
  in
  List.map2
    (fun (r : Manifest.resolved) jr ->
       Manifest.result_line ~timings:false ~seed:r.Manifest.seed jr)
    resolved results

let start_daemon cfg =
  let t = Serve.create cfg in
  let th = Thread.create Serve.run t in
  (t, th)

let stop_daemon (t, th) =
  Serve.stop t;
  Thread.join th

let test_e2e_concurrent_clients () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let manifests =
            List.mapi
              (fun i text ->
                 let path = Filename.concat dir (Printf.sprintf "m%d.jsonl" i) in
                 write_file path text;
                 path)
              [ "{\"id\":\"qa\",\"circuit\":\"qft\",\"n\":6,\"tenant\":\"t0\"}\n\
                 {\"id\":\"qb\",\"circuit\":\"supremacy\",\"n\":6,\"gates\":40,\"tenant\":\"t0\"}\n";
                "{\"id\":\"ga\",\"circuit\":\"ghz\",\"n\":6,\"tenant\":\"t1\"}\n\
                 {\"id\":\"gb\",\"circuit\":\"qft\",\"n\":6,\"policy\":0,\"tenant\":\"t1\"}\n";
                "{\"id\":\"sa\",\"circuit\":\"supremacy\",\"n\":6,\"gates\":30,\"seed\":4,\"tenant\":\"t2\"}\n\
                 {\"id\":\"sb\",\"circuit\":\"ghz\",\"n\":6,\"deadline_s\":30.0,\"tenant\":\"t2\"}\n" ]
          in
          let references = List.map (fun m -> local_reference m) manifests in
          let hits = Obs.counter "serve.warm_hits" in
          let hits0 = Obs.value hits in
          let socket_path = Filename.concat dir "d.sock" in
          let daemon =
            start_daemon
              { Serve.default_config with
                Serve.socket_path;
                journal_path = Some (Filename.concat dir "j.jsonl");
                slots = 2;
                pool_threads = 2;
                warm_capacity = 4 }
          in
          Fun.protect
            ~finally:(fun () -> stop_daemon daemon)
            (fun () ->
               (* Three concurrent clients, three tenants, interleaving in
                  the daemon; each must still read exactly its own local
                  reference bytes back. *)
               let outs = Array.make 3 [] in
               let threads =
                 List.mapi
                   (fun i path ->
                      Thread.create
                        (fun () ->
                           let pairs =
                             Client.run_manifest ~timings:false ~retry_for:5.0
                               ~socket_path path
                           in
                           outs.(i) <- List.map snd pairs)
                        ())
                   manifests
               in
               List.iter Thread.join threads;
               List.iteri
                 (fun i reference ->
                    Alcotest.(check (list string))
                      (Printf.sprintf "client %d byte-identical to local run" i)
                      reference outs.(i))
                 references;
               (* 6 jobs over <= 2 warm handles of the same n: the cache
                  must have served warm state at least once. *)
               Alcotest.(check bool) "warm hits observed" true
                 (Obs.value hits > hits0))))

let test_e2e_restart_adopt_replay () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let journal_path = Filename.concat dir "j.jsonl" in
          let base_seed = 1 in
          let raws =
            [ {|{"id":"r0","circuit":"qft","n":5}|};
              {|{"id":"r1","circuit":"ghz","n":6}|} ]
          in
          let pinned =
            List.mapi
              (fun i raw ->
                 let r = Manifest.parse_line ~base_seed ~index:i raw in
                 (r, Client.pin_line ~dir:"." r raw))
              raws
          in
          (* Life 1 "crashed" after accepting both jobs and completing
             none: exactly what the journal records here. *)
          let j = Journal.create ~path:journal_path ~base_seed () in
          List.iter
            (fun ((r : Manifest.resolved), line) ->
               ignore
                 (Journal.accept j ~id:r.Manifest.job.Sched.id ~tenant:""
                    ~seed:r.Manifest.seed ~line))
            pinned;
          (* Life 2 restores them and runs them without any client. *)
          let socket_path = Filename.concat dir "d.sock" in
          let daemon =
            start_daemon
              { Serve.default_config with
                Serve.socket_path;
                journal_path = Some journal_path;
                base_seed;
                slots = 1;
                pool_threads = 1 }
          in
          Fun.protect
            ~finally:(fun () -> stop_daemon daemon)
            (fun () ->
               let t, _ = daemon in
               let rec wait n =
                 if Serve.completed t < 2 && n > 0 then begin
                   Thread.delay 0.05;
                   wait (n - 1)
                 end
               in
               wait 200;
               Alcotest.(check int) "restored jobs ran with no client" 2
                 (Serve.completed t);
               (* A client resubmitting the same pinned lines gets the
                  stored results, byte-identical, via replay. *)
               let c = Client.connect ~retry_for:5.0 ~socket_path () in
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () ->
                    Client.send_request c
                      (Protocol.Hello_req { timings = false; metrics = false; tenant = None });
                    List.iter
                      (fun (_, line) -> Client.send_request c (Protocol.Job line))
                      pinned;
                    Client.send_request c Protocol.End_req;
                    let results = ref [] in
                    let rec drain () =
                      match Client.read_frame c with
                      | Protocol.Bye _ -> ()
                      | Protocol.Accepted { replay; _ } ->
                        Alcotest.(check bool) "resubmission is a replay" true replay;
                        drain ()
                      | Protocol.Result { id; line } ->
                        results := (id, line) :: !results;
                        drain ()
                      | _ -> drain ()
                    in
                    drain ();
                    let j2 = Journal.create ~path:journal_path ~base_seed () in
                    List.iter
                      (fun (id, line) ->
                         match Journal.find j2 id with
                         | Some { Journal.e_state = Journal.Done stored; _ } ->
                           Alcotest.(check string) "replay = journaled bytes" stored line
                         | _ -> Alcotest.failf "%s missing from journal" id)
                      !results;
                    Alcotest.(check int) "both replayed" 2 (List.length !results)))))

(* Clients before the DD phase became single-domain pinned
   "dd_domains":1 into every line, and clients before dynamic sifting was
   deleted could send "order":"sift", so a journal they fed still holds
   such lines. A daemon restarted onto it must run them, and to the same
   bytes as the line without the field or with "order":"static". *)
let test_e2e_old_pinned_line_replays () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let journal_path = Filename.concat dir "j.jsonl" in
          let base_seed = 1 in
          let old_lines =
            [ ("old", 17,
               {|{"id":"old","circuit":"qft","n":5,"seed":17,"dd_domains":1,"order":"none","precision":"f64"}|});
              ("sifted", 5,
               {|{"id":"sifted","circuit":"swaptest","n":7,"seed":5,"order":"sift","precision":"f64"}|}) ]
          in
          let j = Journal.create ~path:journal_path ~base_seed () in
          List.iter
            (fun (id, seed, line) -> ignore (Journal.accept j ~id ~tenant:"" ~seed ~line))
            old_lines;
          let manifest = Filename.concat dir "m.jsonl" in
          write_file manifest
            ({|{"id":"old","circuit":"qft","n":5,"seed":17}|} ^ "\n"
             ^ {|{"id":"sifted","circuit":"swaptest","n":7,"seed":5,"order":"static"}|});
          let reference = local_reference ~base_seed manifest in
          let socket_path = Filename.concat dir "d.sock" in
          let daemon =
            start_daemon
              { Serve.default_config with
                Serve.socket_path;
                journal_path = Some journal_path;
                base_seed;
                slots = 1;
                pool_threads = 1 }
          in
          Fun.protect
            ~finally:(fun () -> stop_daemon daemon)
            (fun () ->
               let t, _ = daemon in
               let rec wait n =
                 if Serve.completed t < 2 && n > 0 then begin
                   Thread.delay 0.05;
                   wait (n - 1)
                 end
               in
               wait 200;
               Alcotest.(check int) "old lines ran" 2 (Serve.completed t));
          let journal = Journal.create ~path:journal_path ~base_seed () in
          let stored (id, _, _) =
            match Journal.find journal id with
            | Some { Journal.e_state = Journal.Done stored; _ } -> stored
            | _ -> Alcotest.failf "old line %s must be done in the journal" id
          in
          Alcotest.(check (list string)) "same bytes as the current spelling" reference
            (List.map stored old_lines)))

(* --quota counts a tenant's queued and running jobs in the scheduler.
   Jobs of n = 16 and 20,000 gates run for seconds, so everything
   accepted stays queued or running until the daemon stops. *)
let long_job id =
  Printf.sprintf
    {|{"id":"%s","circuit":"supremacy","n":16,"gates":20000,"seed":1,"policy":0}|} id

let test_quota () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let socket_path = Filename.concat dir "d.sock" in
          let journal_path = Filename.concat dir "j.jsonl" in
          let cfg =
            { Serve.default_config with
              Serve.socket_path;
              journal_path = Some journal_path;
              slots = 1;
              pool_threads = 1;
              quota = 2 }
          in
          let connect tenant =
            let c = Client.connect ~retry_for:5.0 ~socket_path () in
            Client.send_request c
              (Protocol.Hello_req { timings = false; metrics = false; tenant = Some tenant });
            c
          in
          (* Submit one job and read its answer: [Ok ()] or the reason. *)
          let submit c id =
            Client.send_request c (Protocol.Job (long_job id));
            let rec answer () =
              match Client.read_frame c with
              | Protocol.Accepted { id = rid; _ } when rid = id -> Ok ()
              | Protocol.Rejected { id = Some rid; reason } when rid = id -> Error reason
              | _ -> answer ()
            in
            answer ()
          in
          let over_quota load answer =
            Alcotest.(check (result unit string))
              (Printf.sprintf "refused at load %d" load)
              (Error
                 (Printf.sprintf "tenant \"a\" over quota (%d jobs queued or running, quota 2)"
                    load))
              answer
          in
          let with_daemon f =
            let daemon = start_daemon cfg in
            Fun.protect ~finally:(fun () -> stop_daemon daemon) f
          in
          with_daemon (fun () ->
              let a = connect "a" and b = connect "b" in
              Fun.protect
                ~finally:(fun () -> Client.close a; Client.close b)
                (fun () ->
                   Alcotest.(check bool) "1st of a accepted" true (submit a "a0" = Ok ());
                   Alcotest.(check bool) "2nd of a accepted" true (submit a "a1" = Ok ());
                   over_quota 2 (submit a "a2");
                   Alcotest.(check bool) "b still accepted" true (submit b "b0" = Ok ())));
          (* Between lives a third job of a was accepted (say, under a
             larger quota). Restored jobs bypass the bound: all three of
             a's are back, and a fresh one is refused at load 3. *)
          let j = Journal.create ~path:journal_path ~base_seed:1 () in
          let line =
            {|{"id":"a3","circuit":"supremacy","n":16,"gates":20000,"seed":1,"policy":0,"tenant":"a"}|}
          in
          ignore (Journal.accept j ~id:"a3" ~tenant:"a" ~seed:1 ~line);
          Alcotest.(check int) "pending in the journal" 4 (List.length (Journal.pending j));
          with_daemon (fun () ->
              let a = connect "a" in
              Fun.protect
                ~finally:(fun () -> Client.close a)
                (fun () -> over_quota 3 (submit a "a4")))))

let test_e2e_disconnect_and_rejects () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let socket_path = Filename.concat dir "d.sock" in
          let journal_path = Filename.concat dir "j.jsonl" in
          let daemon =
            start_daemon
              { Serve.default_config with
                Serve.socket_path;
                journal_path = Some journal_path;
                slots = 1;
                pool_threads = 1;
                quota = 1 }
          in
          Fun.protect
            ~finally:(fun () -> stop_daemon daemon)
            (fun () ->
               (* Client 1 submits a job then vanishes mid-stream. *)
               let c1 = Client.connect ~retry_for:5.0 ~socket_path () in
               Client.send_request c1
                 (Protocol.Hello_req { timings = false; metrics = false; tenant = Some "t" });
               Client.send_request c1
                 (Protocol.Job {|{"id":"orphan","circuit":"qft","n":5,"seed":8}|});
               (* Wait for the accept so the submission raced nothing. *)
               let rec until_accept () =
                 match Client.read_frame c1 with
                 | Protocol.Accepted _ -> ()
                 | _ -> until_accept ()
               in
               until_accept ();
               Client.close c1;
               (* The daemon still runs the job to completion. *)
               let t, _ = daemon in
               let rec wait n =
                 if Serve.completed t < 1 && n > 0 then begin
                   Thread.delay 0.05;
                   wait (n - 1)
                 end
               in
               wait 200;
               Alcotest.(check int) "orphaned job still completed" 1 (Serve.completed t);
               (* Client 2 resubmits the same id and gets the stored
                  result; a malformed line and an over-quota burst are
                  rejected without killing the connection. *)
               let c2 = Client.connect ~socket_path () in
               Fun.protect
                 ~finally:(fun () -> Client.close c2)
                 (fun () ->
                    Client.send_request c2
                      (Protocol.Hello_req { timings = false; metrics = false; tenant = Some "t" });
                    Client.send_request c2 (Protocol.Job {|{"id":"bad","circuit":"nope","n":3}|});
                    Client.send_request c2
                      (Protocol.Job {|{"id":"orphan","circuit":"qft","n":5,"seed":8}|});
                    Client.send_request c2 Protocol.End_req;
                    let got_reject = ref false and got_result = ref false in
                    let rec drain () =
                      match Client.read_frame c2 with
                      | Protocol.Bye _ -> ()
                      | Protocol.Rejected { id = Some "bad"; _ } ->
                        got_reject := true;
                        drain ()
                      | Protocol.Result { id = "orphan"; _ } ->
                        got_result := true;
                        drain ()
                      | _ -> drain ()
                    in
                    drain ();
                    Alcotest.(check bool) "bad job rejected" true !got_reject;
                    Alcotest.(check bool) "orphan result replayed" true !got_result))))

let test_e2e_id_collision_rejected () =
  with_obs (fun () ->
      in_temp_dir (fun dir ->
          let socket_path = Filename.concat dir "d.sock" in
          let daemon =
            start_daemon
              { Serve.default_config with
                Serve.socket_path;
                journal_path = Some (Filename.concat dir "j.jsonl");
                slots = 1;
                pool_threads = 1 }
          in
          Fun.protect
            ~finally:(fun () -> stop_daemon daemon)
            (fun () ->
               let submit ~tenant line k =
                 let c = Client.connect ~retry_for:5.0 ~socket_path () in
                 Fun.protect
                   ~finally:(fun () -> Client.close c)
                   (fun () ->
                      Client.send_request c
                        (Protocol.Hello_req
                           { timings = false; metrics = false; tenant = Some tenant });
                      Client.send_request c (Protocol.Job line);
                      Client.send_request c Protocol.End_req;
                      k c)
               in
               (* Tenant a takes id "job-0" — exactly what an un-id'd
                  manifest line pins client-side. *)
               submit ~tenant:"a" {|{"id":"job-0","circuit":"qft","n":5,"seed":3}|}
                 (fun c ->
                    let rec drain saw =
                      match Client.read_frame c with
                      | Protocol.Bye _ -> saw
                      | Protocol.Result _ -> drain true
                      | _ -> drain saw
                    in
                    Alcotest.(check bool) "tenant a's job ran" true (drain false));
               (* Tenant b reuses the id for a DIFFERENT job: must be
                  rejected, not handed tenant a's stored bytes. *)
               submit ~tenant:"b" {|{"id":"job-0","circuit":"ghz","n":5,"seed":3}|}
                 (fun c ->
                    let rec drain () =
                      match Client.read_frame c with
                      | Protocol.Rejected { id = Some "job-0"; _ } -> true
                      | Protocol.Result _ | Protocol.Bye _ -> false
                      | _ -> drain ()
                    in
                    Alcotest.(check bool) "colliding id rejected" true (drain ()));
               (* The byte-identical resubmission still replays. *)
               submit ~tenant:"a" {|{"id":"job-0","circuit":"qft","n":5,"seed":3}|}
                 (fun c ->
                    let rec drain () =
                      match Client.read_frame c with
                      | Protocol.Accepted { replay; _ } -> replay
                      | Protocol.Rejected _ | Protocol.Bye _ -> false
                      | _ -> drain ()
                    in
                    Alcotest.(check bool) "identical resubmission replays" true
                      (drain ())))))

(* A long-lived daemon must not keep what it has served: after the warm
   cache, the done-tail of the journal and the metrics registry have
   filled (the first 50 jobs), 150 more jobs may not grow the live heap
   by more than the slack. Measured with 6-qubit jobs: about 150 words of
   growth over the 150 jobs with delivered jobs released, 77k words
   (about 500 per job) when the scheduler kept every result, final state
   included, for the daemon's lifetime. *)
let heap_slack_words = 4_096

let test_serve_heap_flat () =
  in_temp_dir (fun dir ->
      let socket_path = Filename.concat dir "d.sock" in
      let daemon =
        start_daemon
          { Serve.default_config with
            Serve.socket_path;
            journal_tail = 8;
            slots = 1;
            pool_threads = 1;
            warm_capacity = 2 }
      in
      let round first count =
        let c = Client.connect ~retry_for:5.0 ~socket_path () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
             Client.send_request c
               (Protocol.Hello_req { timings = false; metrics = false; tenant = None });
             for i = first to first + count - 1 do
               Client.send_request c
                 (Protocol.Job
                    (Printf.sprintf {|{"id":"h%d","circuit":"qft","n":6,"seed":%d}|} i i))
             done;
             Client.send_request c Protocol.End_req;
             let rec drain got =
               match Client.read_frame c with
               | Protocol.Bye _ -> got
               | Protocol.Result _ -> drain (got + 1)
               | _ -> drain got
             in
             Alcotest.(check int) "every job answered" count (drain 0))
      in
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      Fun.protect
        ~finally:(fun () -> stop_daemon daemon)
        (fun () ->
           round 0 50;
           let before = live () in
           round 50 150;
           let grown = live () - before in
           if grown > heap_slack_words then
             Alcotest.failf "150 served jobs grew the live heap by %d words (slack %d)"
               grown heap_slack_words))

let suite =
  [ ( "serve protocol",
      [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
        Alcotest.test_case "field pinning preserves bytes" `Quick test_set_field_pinning ] );
    ( "serve client pinning",
      [ Alcotest.test_case "qasm absolutization" `Quick test_pin_line_paths;
        Alcotest.test_case "order rides the wire" `Quick test_pin_line_order;
        Alcotest.test_case "duplicate ids rejected locally" `Quick
          test_load_pinned_duplicate_ids ] );
    (* The DRR lives in Sched; test_sched.ml defines its tests. *)
    ( "serve tenant drr",
      Test_sched.drr_cases @ [ Alcotest.test_case "quota admission" `Quick test_quota ] );
    ( "serve journal",
      [ Alcotest.test_case "round-trip through disk" `Quick test_journal_roundtrip;
        Alcotest.test_case "done-tail compaction" `Quick test_journal_compaction;
        Alcotest.test_case "crash/restart prefix property" `Slow
          test_checkpoint_prefix_property;
        Alcotest.test_case "crash/restart prefix property, compacted" `Slow
          test_checkpoint_prefix_compacted ] );
    ( "serve warm",
      [ Alcotest.test_case "warm reuse is bit-identical" `Quick test_warm_bit_identical;
        Alcotest.test_case "eviction and sizing" `Quick test_warm_eviction_and_sizing ] );
    ( "serve e2e",
      [ Alcotest.test_case "concurrent clients match local runs" `Slow
          test_e2e_concurrent_clients;
        Alcotest.test_case "restart adopts pending and replays done" `Slow
          test_e2e_restart_adopt_replay;
        Alcotest.test_case "disconnect, rejects and resubmission" `Slow
          test_e2e_disconnect_and_rejects;
        Alcotest.test_case "id collision across tenants rejected" `Slow
          test_e2e_id_collision_rejected;
        Alcotest.test_case "200 served jobs keep the heap flat" `Slow
          test_serve_heap_flat;
        Alcotest.test_case "old pinned journal line replays" `Slow
          test_e2e_old_pinned_line_replays ] ) ]
