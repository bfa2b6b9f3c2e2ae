(* The repository benchmark: one seeded workload per run, measured from
   outside the program.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]
     bench.exe ... --rss-probe   (one pass in this process, then its VmHWM)
     bench.exe metrics     (the workloads and the metric catalog: kind, name, unit)
     bench.exe selftest    (harness self-checks that need no long run)

   A run pre-warms, sets up (inputs, pool or daemon, one warm-up job)
   three times and keeps the last, computes the references, then runs
   whole passes over the workload's fixed job list until S seconds have
   gone, checking every job's output outside its timed interval. Peak
   memory is then read from a fresh --rss-probe process. With --trace 1
   the first third of the window runs untraced and the rest traced (Obs
   registry, Config.trace, serve result-line timings and metrics frames);
   the per-layer numbers come from the traced part and the tracing
   overhead is the difference of the two parts' wall_s.

   The last stdout line is the result object; the lines before it are a
   readable report and one "detail:" JSON line the wrapper keeps. *)

let now = Unix.gettimeofday
let setup_reps = 3

(* A fresh process runs its first ~2 s of two-domain work up to 1.7x
   slow on this kind of host; this much untimed work comes before
   anything is measured, set-up included. *)
let prewarm_s = 2.0

(* ------------------------------------------------------------------ *)
(* Metric catalog                                                      *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("wall_s", "s"); ("job_p50_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer =
  [ ("driver.dd_phase_s", "s"); ("driver.convert_s", "s"); ("driver.flat_phase_s", "s");
    ("driver.other_s", "s"); ("driver.converted_at_mean", "gate");
    ("dd.unique.vnodes.created", "count"); ("dd.unique.reuse_ratio", "ratio");
    ("dd.peak_vnodes", "count"); ("dd.gc.runs", "count"); ("dd.cache.hit_ratio", "ratio");
    ("ctable.hit_ratio", "ratio"); ("ctable.entries_peak", "count");
    ("dmav.gates.cached", "count"); ("dmav.gates.uncached", "count");
    ("dmav.gates.dense", "count"); ("dmav.kernel_s", "s"); ("dmav.macs_modeled", "count");
    ("dmav.ns_per_mac", "ns"); ("dmav.cache.hits_per_cached_gate", "count");
    ("dmav.bytes_computed.f64", "B"); ("dmav.bytes_computed.f32", "B");
    ("dmav.gbytes_per_s_computed.f64", "GB/s"); ("dmav.gbytes_per_s_computed.f32", "GB/s");
    ("statevec.dense_s", "s"); ("fusion.gates_in", "count"); ("fusion.gates_out", "count");
    ("fusion.ddmm_calls", "count"); ("fusion.plan_s", "s"); ("convert.tasks", "count");
    ("convert.filled_ratio", "ratio"); ("pool.busy_s", "s"); ("pool.utilization", "ratio");
    ("pool.admission_wait_s", "s"); ("sched.queue_wait_p50_s", "s");
    ("sched.queue_wait_p95_s", "s"); ("sched.run_p50_s", "s"); ("serve.overhead_p50_s", "s");
    ("serve.journal.writes", "count"); ("serve.journal_bytes", "B");
    ("serve.warm.hit_ratio", "ratio"); ("serve.warm.scrubs", "count");
    ("gc.minor_words", "words"); ("gc.major_words", "words");
    ("gc.major_collections", "count"); ("trace.overhead_s", "s") ]

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let jnum v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let ratio a b = if b > 0.0 then a /. b else 0.0

(* CPU time stolen from this guest by the host, in jiffies over all CPUs
   (the eighth field of /proc/stat's cpu line); 0 where unavailable. *)
let steal_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields when List.length fields >= 8 -> int_of_string (List.nth fields 7)
    | _ -> 0
  with Sys_error _ | End_of_file | Failure _ -> 0

(* [f ()], its wall time, and the share of the guest's CPU time the host
   stole while it ran. *)
let with_steal f =
  let hz = 100.0 *. float_of_int (Domain.recommended_domain_count ()) in
  let s0 = steal_jiffies () and t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, Float.min 0.9 (float_of_int (steal_jiffies () - s0) /. (hz *. dt)))

(* One timed pass over the job list. *)
type pass = {
  wall : float;
  lats : float list;  (* its job latencies *)
  steal : float;      (* share of the guest's CPU time stolen during it *)
}

(* Whole passes until [budget] seconds have gone, at least one, each
   starting from a collected heap and each with the share of the guest's
   CPU time the host stole while it ran. *)
let run_passes ~budget one_pass =
  let deadline = now () +. budget in
  let rec go acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let (wall, lats), _, steal = with_steal one_pass in
      go ({ wall; lats; steal } :: acc)
    end
  in
  go []

(* Other guests on this host take the CPUs in episodes that last from
   seconds to several minutes; at a steal share s, a pass whose k domains
   must all be running to get past each barrier runs 1/(1-s)^k slow
   (s = 0.45, k = 2: 3.3x predicted, 3.4x measured). A pass time is
   therefore reported with the stolen time taken out, t (1-s)^k, k being
   the pool size; the raw times and steal shares are in the record.
   Without steal the factor is 1. What steal does not show, a
   neighbour's traffic in the shared cache, only ever slows a pass down,
   so a run's passes are summarised by their lower quartile: wall_s from
   the pass times, job_p50_s from each pass's median job latency. Set-up
   times get the same correction. *)
let lower_quartile = Pct.quantile 0.25
let unstolen_time ~k t steal = t *. Float.pow (1.0 -. steal) (float_of_int k)
let unstolen ~k p t = unstolen_time ~k t p.steal
let wall_of ~k passes = lower_quartile (List.map (fun p -> unstolen ~k p p.wall) passes)

let job_p50_of ~k passes =
  lower_quartile (List.map (fun p -> unstolen ~k p (Pct.median p.lats)) passes)

(* Tracing overhead: traced minus untraced pass time. *)
let overhead ~k untraced traced = wall_of ~k traced -. wall_of ~k untraced

(* What every workload run hands back to [main]. *)
type outcome = {
  setup : float list;     (* one per set-up repetition *)
  passes : pass list;     (* the timed passes (the traced part's, when traced) *)
  attempted : int;
  failed : int;
  layers : (string * float) list; (* per-job means from the traced part *)
}

(* ------------------------------------------------------------------ *)
(* Traced-part accounting                                               *)
(* ------------------------------------------------------------------ *)

(* One job's contribution to the per-layer metrics, from public outputs:
   the [Driver.result] (cold workloads) or the result line (serve). *)
type jobrec = {
  mutable jobs : int;
  mutable dd_s : float;
  mutable conv_s : float;
  mutable flat_s : float;
  mutable other_s : float;
  mutable conv_at : float list;
  mutable conv_amps : float;        (* Σ 2ⁿ over converted jobs *)
  mutable dense_s : float;
  mutable bytes64 : float;
  mutable bytes32 : float;
  mutable flat64_s : float;
  mutable flat32_s : float;
  mutable cache_hits : float;
  mutable cache_lookups : float;
  mutable ct_entries_peak : int;
  mutable busy_den : float;         (* Σ job run seconds, for utilization *)
  mutable queue_waits : float list;
  mutable run_ss : float list;
  mutable overheads : float list;
  mutable gc_minor : float;         (* Gc deltas: over each job (cold), the window (serve) *)
  mutable gc_major : float;
  mutable gc_collections : int;
}

let new_rec () =
  { jobs = 0; dd_s = 0.; conv_s = 0.; flat_s = 0.; other_s = 0.; conv_at = [];
    conv_amps = 0.; dense_s = 0.; bytes64 = 0.; bytes32 = 0.; flat64_s = 0.;
    flat32_s = 0.; cache_hits = 0.; cache_lookups = 0.; ct_entries_peak = 0; busy_den = 0.;
    queue_waits = []; run_ss = []; overheads = []; gc_minor = 0.; gc_major = 0.;
    gc_collections = 0 }

let sample_ctable jr =
  match Obs.Metrics.gauge_value (Obs.Metrics.snapshot ()) "ctable.entries" with
  | Some v when v > jr.ct_entries_peak -> jr.ct_entries_peak <- v
  | _ -> ()

(* Dd.stats is the package's public summary; its compute-cache fields
   read "mv=hits/misses" and so on. *)
let dd_cache_counts stats =
  List.fold_left
    (fun (h, l) field ->
       match String.split_on_char '=' field with
       | [ ("mv" | "mm" | "vadd" | "madd"); v ] ->
         Scanf.sscanf v "%d/%d" (fun hits misses ->
             (h +. float_of_int hits, l +. float_of_int (hits + misses)))
       | _ -> (h, l))
    (0.0, 0.0) (String.split_on_char ' ' stats)

let layer_metrics jr ~snap ~pool_size ~overhead ~journal_bytes =
  let c name = float_of_int (Option.value (Obs.Metrics.counter_value snap name) ~default:0) in
  let fc name = Option.value (Obs.Metrics.fcounter_value snap name) ~default:0.0 in
  let sp name =
    match Obs.Metrics.span_value snap name with Some s -> s.Obs.Metrics.seconds | None -> 0.0
  in
  let g name = float_of_int (Option.value (Obs.Metrics.gauge_value snap name) ~default:0) in
  let jobs = float_of_int (Int.max 1 jr.jobs) in
  let per x = x /. jobs in
  let kernel_s = sp "dmav.apply" in
  let macs = fc "dmav.macs.modeled" in
  let p50 xs = if xs = [] then 0.0 else Pct.median xs in
  let created = c "dd.unique.vnodes.created" and reused = c "dd.unique.vnodes.reused" in
  [ ("driver.dd_phase_s", per jr.dd_s); ("driver.convert_s", per jr.conv_s);
    ("driver.flat_phase_s", per jr.flat_s); ("driver.other_s", per jr.other_s);
    ("driver.converted_at_mean", if jr.conv_at = [] then 0.0 else Stats.mean jr.conv_at);
    ("dd.unique.vnodes.created", per created);
    ("dd.unique.reuse_ratio", ratio reused (created +. reused));
    ("dd.peak_vnodes", g "dd.unique.vnodes.peak");
    ("dd.gc.runs", per (c "dd.gc.runs"));
    ("dd.cache.hit_ratio", ratio jr.cache_hits jr.cache_lookups);
    ("ctable.hit_ratio", ratio (c "ctable.hits") (c "ctable.lookups"));
    ("ctable.entries_peak", float_of_int jr.ct_entries_peak);
    ("dmav.gates.cached", per (c "dmav.dispatch.cached"));
    ("dmav.gates.uncached", per (c "dmav.dispatch.uncached"));
    ("dmav.gates.dense", per (c "dmav.dispatch.dense")); ("dmav.kernel_s", per kernel_s);
    ("dmav.macs_modeled", per macs); ("dmav.ns_per_mac", ratio (kernel_s *. 1e9) macs);
    ("dmav.cache.hits_per_cached_gate", ratio (c "dmav.cache.hits") (c "dmav.kernel.cached"));
    ("dmav.bytes_computed.f64", per jr.bytes64); ("dmav.bytes_computed.f32", per jr.bytes32);
    ("dmav.gbytes_per_s_computed.f64", ratio jr.bytes64 jr.flat64_s /. 1e9);
    ("dmav.gbytes_per_s_computed.f32", ratio jr.bytes32 jr.flat32_s /. 1e9);
    ("statevec.dense_s", per jr.dense_s); ("fusion.gates_in", per (c "fusion.gates_in"));
    ("fusion.gates_out", per (c "fusion.gates_out"));
    ("fusion.ddmm_calls", per (c "fusion.ddmm_calls"));
    ("fusion.plan_s", Float.max 0.0 (per (jr.flat_s -. kernel_s -. jr.dense_s)));
    ("convert.tasks", per (c "convert.tasks"));
    ("convert.filled_ratio", ratio (c "convert.filled_amplitudes") jr.conv_amps);
    ("pool.busy_s", per (sp "pool.worker_busy"));
    ("pool.utilization", ratio (sp "pool.worker_busy") (float_of_int pool_size *. jr.busy_den));
    ("pool.admission_wait_s", per (sp "pool.admission_wait"));
    ("sched.queue_wait_p50_s", p50 jr.queue_waits);
    ("sched.queue_wait_p95_s", Option.value (Pct.tail 0.95 jr.queue_waits) ~default:0.0);
    ("sched.run_p50_s", p50 jr.run_ss); ("serve.overhead_p50_s", p50 jr.overheads);
    ("serve.journal.writes", per (c "serve.journal.writes"));
    ("serve.journal_bytes", journal_bytes);
    ("serve.warm.hit_ratio",
     ratio (c "serve.warm_hits") (c "serve.warm_hits" +. c "serve.warm_misses"));
    ("serve.warm.scrubs", per (c "serve.warm_scrubs"));
    ("gc.minor_words", per jr.gc_minor); ("gc.major_words", per jr.gc_major);
    ("gc.major_collections", per (float_of_int jr.gc_collections));
    ("trace.overhead_s", overhead) ]

(* ------------------------------------------------------------------ *)
(* Cold workloads: hybrid-deep, dd-deep, flat-wide                     *)
(* ------------------------------------------------------------------ *)

type cold = { key : int; job : Sched.job; tol : float }

let resolve ~tiny w ~seed =
  List.map
    (fun (s : Jobs.spec) ->
       let r =
         Manifest.parse_line ~default_config:(Jobs.config w) ~index:s.Jobs.key
           (Jobs.render ~pass:0 s)
       in
       let job = r.Manifest.job in
       let tol = match job.Sched.config.Config.precision with Config.F64 -> 1e-10 | Config.F32 -> 1e-4 in
       { key = s.Jobs.key; job; tol })
    (Jobs.pass ~tiny w ~seed)

(* Amplitude check against the dense reference engine, at the precision's
   tolerance, plus the norm. *)
let matches ~tol reference r =
  let a = Driver.amplitudes r in
  Buf.length a = Buf.length reference
  && Buf.max_abs_diff a reference <= tol
  && Float.abs (Buf.norm2 a -. 1.0) <= tol

(* One job the way flatdd_cli runs it: Driver.run builds its own DD
   package and workspace. A traced job builds the package itself (the
   same [Dd.create] [Driver.run] would call) so [Dd.stats] can be read. *)
let run_cold ~pool ~traced ~parent (c : cold) =
  let cfg = c.job.Sched.config in
  let jid = c.job.Sched.id in
  if not traced then begin
    let t0 = now () in
    let r = Driver.run ~pool cfg c.job.Sched.circuit in
    (r, now () -. t0, None)
  end
  else begin
    let span = Spans.fresh () in
    let gc0 = Gc.quick_stat () in
    let t0 = now () in
    let package = Dd.create () in
    let t1 = now () in
    let r = Driver.run ~pool ~package { cfg with Config.trace = true } c.job.Sched.circuit in
    let t2 = now () in
    Spans.add ~parent:span ~job:jid "dd.create" t0 t1;
    let run = Spans.fresh () in
    Spans.add ~id:run ~parent:span ~job:jid "driver.run" t1 t2;
    Spans.add ~id:span ~parent ~job:jid "job" t0 t2;
    (r, t2 -. t0, Some (run, t1, package, (gc0, Gc.quick_stat ())))
  end

let add_gc jr (g0 : Gc.stat) (g1 : Gc.stat) =
  jr.gc_minor <- jr.gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  jr.gc_major <- jr.gc_major +. (g1.Gc.major_words -. g0.Gc.major_words);
  jr.gc_collections <- jr.gc_collections + (g1.Gc.major_collections - g0.Gc.major_collections)

let account_cold jr (c : cold) (r : Driver.result) dt ~run ~t1 ~package ~gc ~pass =
  let jid = c.job.Sched.id in
  let n = r.Driver.n in
  add_gc jr (fst gc) (snd gc);
  jr.jobs <- jr.jobs + 1;
  jr.dd_s <- jr.dd_s +. r.Driver.seconds_dd;
  jr.conv_s <- jr.conv_s +. r.Driver.seconds_convert;
  jr.flat_s <- jr.flat_s +. r.Driver.seconds_dmav;
  jr.other_s <- jr.other_s +. (dt -. r.Driver.seconds_total);
  jr.busy_den <- jr.busy_den +. dt;
  (match r.Driver.converted_at with
   | Some k ->
     jr.conv_at <- float_of_int k :: jr.conv_at;
     jr.conv_amps <- jr.conv_amps +. Float.pow 2.0 (float_of_int n)
   | None -> ());
  let h, l = dd_cache_counts (Dd.stats package) in
  jr.cache_hits <- jr.cache_hits +. h;
  jr.cache_lookups <- jr.cache_lookups +. l;
  sample_ctable jr;
  let f32 = c.job.Sched.config.Config.precision = Config.F32 in
  let amp = Float.pow 2.0 (float_of_int n) *. if f32 then 8.0 else 16.0 in
  List.iter
    (fun (g : Engine.gate_record) ->
       match g.Engine.phase with
       | Engine.Dmav_phase ->
         if g.Engine.dispatch = Some Engine.Dense_direct then jr.dense_s <- jr.dense_s +. g.Engine.seconds;
         if f32 then begin
           jr.bytes32 <- jr.bytes32 +. amp;
           jr.flat32_s <- jr.flat32_s +. g.Engine.seconds
         end
         else begin
           jr.bytes64 <- jr.bytes64 +. amp;
           jr.flat64_s <- jr.flat64_s +. g.Engine.seconds
         end
       | _ -> ())
    r.Driver.trace;
  (* Child spans from the returned durations: the three phases back to
     back, and on the first traced pass one span per gate. *)
  let phases =
    [ ("driver.dd_phase", r.Driver.seconds_dd); ("driver.convert", r.Driver.seconds_convert);
      ("driver.flat_phase", r.Driver.seconds_dmav) ]
  in
  let t = ref t1 in
  List.iter
    (fun (name, d) ->
       let id = Spans.fresh () in
       Spans.add ~id ~parent:run ~job:jid name !t (!t +. d);
       if pass = 0 then begin
         let phase =
           match name with
           | "driver.dd_phase" -> Engine.Dd_phase
           | "driver.convert" -> Engine.Conversion
           | _ -> Engine.Dmav_phase
         in
         ignore
           (Spans.lay ~parent:id ~job:jid !t
              (List.filter_map
                 (fun (g : Engine.gate_record) ->
                    if g.Engine.phase = phase then Some ("gate." ^ g.Engine.name, g.Engine.seconds)
                    else None)
                 r.Driver.trace))
       end;
       t := !t +. d)
    phases

(* Set up [setup_reps] times, tearing down all but the last, which is
   kept; the times, with steal taken out, give setup_s. *)
let set_up ~k ~teardown f =
  let rec go n acc kept =
    if n = 0 then (List.rev acc, Option.get kept)
    else begin
      Option.iter teardown kept;
      let s, dt, steal = with_steal f in
      go (n - 1) (unstolen_time ~k dt steal :: acc) (Some s)
    end
  in
  go setup_reps [] None

(* Untimed: cycle through the jobs until [prewarm_s] has gone. *)
let prewarm ~threads (jobs : Sched.job list) =
  Spans.time "prewarm" (fun _ ->
      Pool.with_pool threads (fun pool ->
          let deadline = now () +. prewarm_s in
          let rec go = function
            | [] -> go jobs
            | (j : Sched.job) :: rest ->
              if now () < deadline then begin
                ignore (Driver.run ~pool j.Sched.config j.Sched.circuit);
                Gc.full_major ();
                go rest
              end
          in
          go jobs))

let cold_setup ~tiny w ~seed =
  Spans.time "setup" (fun sid ->
      let jobs, warm =
        Spans.time ~parent:sid "setup.inputs" (fun _ ->
            ( resolve ~tiny w ~seed,
              (Manifest.parse_line ~default_config:(Jobs.config w) ~index:0
                 (Jobs.warm_job ~tiny w ~seed)).Manifest.job ))
      in
      let pool = Spans.time ~parent:sid "setup.pool" (fun _ -> Pool.create (Jobs.threads w)) in
      Spans.time ~parent:sid "setup.warmup" (fun _ ->
          ignore (Driver.run ~pool warm.Sched.config warm.Sched.circuit));
      (jobs, pool))

let run_cold_workload ~tiny ~traced w ~seed ~seconds =
  if not tiny then
    prewarm ~threads:(Jobs.threads w) (List.map (fun c -> c.job) (resolve ~tiny w ~seed));
  let setup, (jobs, pool) =
    set_up ~k:(Jobs.threads w) ~teardown:(fun (_, pool) -> Pool.shutdown pool) (fun () ->
        cold_setup ~tiny w ~seed)
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let refs =
        Spans.time "references" (fun _ ->
            List.map
              (fun c ->
                 let cfg = { c.job.Sched.config with Config.precision = Config.F64 } in
                 Driver.amplitudes
                   (Driver.run_engine ~pool (module Dense_engine) cfg c.job.Sched.circuit))
              jobs)
      in
      let attempted = ref 0 and failed = ref 0 in
      let traced_passes = ref 0 in
      let jr = new_rec () in
      let one_pass ~traced () =
          let pass_span = if traced then Spans.fresh () else 0 in
          let p0 = now () in
          let wall = ref 0.0 and pass_lats = ref [] in
          List.iter2
            (fun c reference ->
               incr attempted;
               (match run_cold ~pool ~traced ~parent:pass_span c with
                | exception e ->
                  incr failed;
                  Printf.eprintf "job %s raised %s\n%!" c.job.Sched.id (Printexc.to_string e)
                | r, dt, extra ->
                  wall := !wall +. dt;
                  pass_lats := dt :: !pass_lats;
                  if not (matches ~tol:c.tol reference r) then begin
                    incr failed;
                    Printf.eprintf "job %s: output differs from the dense reference\n%!"
                      c.job.Sched.id
                  end;
                  (match extra with
                   | Some (run, t1, package, gc) ->
                     account_cold jr c r dt ~run ~t1 ~package ~gc ~pass:!traced_passes
                   | None -> ()));
               (* Start every job from a collected heap, as a fresh CLI
                  process would: peak memory is then one job's, not
                  however much garbage earlier jobs left behind. *)
               Gc.full_major ())
            jobs refs;
          if traced then begin
            Spans.add ~id:pass_span "pass" p0 (now ());
            incr traced_passes
          end;
          (!wall, !pass_lats)
      in
      if not traced then begin
        let passes = run_passes ~budget:seconds (one_pass ~traced:false) in
        { setup; passes; attempted = !attempted; failed = !failed; layers = [] }
      end
      else begin
        let untraced = run_passes ~budget:(seconds /. 3.0) (one_pass ~traced:false) in
        Obs.set_enabled true;
        let snap0 = Obs.Metrics.snapshot () in
        let passes = run_passes ~budget:(2.0 *. seconds /. 3.0) (one_pass ~traced:true) in
        let snap = Obs.Metrics.diff snap0 (Obs.Metrics.snapshot ()) in
        let layers =
          layer_metrics jr ~snap ~pool_size:(Jobs.threads w)
            ~overhead:(overhead ~k:(Jobs.threads w) untraced passes)
            ~journal_bytes:0.0
        in
        { setup; passes; attempted = !attempted; failed = !failed; layers }
      end)

(* ------------------------------------------------------------------ *)
(* serve-stream: an in-process flatdd_serve and two closed-loop tenants *)
(* ------------------------------------------------------------------ *)

type daemon = {
  serve : Serve.t;
  thread : Thread.t;
  journal : string;
  conns : (string * Client.connection) list; (* tenant, connection *)
}

(* One slot on a two-thread pool: the runner domain plus one pool worker
   never exceed the host's two cores. Ten warm handles hold every
   (tenant, qubit count) key of the stream; a 32-entry done-tail keeps
   each journal rewrite the same size once the warm-up has filled it. *)
let start_daemon ~dir ~tag ~traced =
  let socket_path = Filename.concat dir (tag ^ ".sock") in
  let journal = Filename.concat dir (tag ^ ".journal") in
  if Sys.file_exists journal then Sys.remove journal;
  let serve =
    Serve.create
      { Serve.default_config with
        Serve.socket_path;
        slots = 1;
        pool_threads = Jobs.threads Jobs.Serve_stream;
        journal_path = Some journal;
        journal_tail = 32;
        warm_capacity = 10 }
  in
  let thread = Thread.create Serve.run serve in
  (* Wait for the listener instead of leaning on the client's 50 ms
     connect backoff, which would quantize the set-up time. *)
  while not (Sys.file_exists socket_path) do
    Thread.delay 0.001
  done;
  let conns =
    List.map
      (fun tenant ->
         let c = Client.connect ~retry_for:10.0 ~socket_path () in
         Client.send_request c
           (Protocol.Hello_req { timings = traced; metrics = traced; tenant = Some tenant });
         (tenant, c))
      (Array.to_list Jobs.tenants)
  in
  { serve; thread; journal; conns }

let set_tracing d ~traced =
  List.iter
    (fun (tenant, c) ->
       Client.send_request c
         (Protocol.Hello_req { timings = traced; metrics = traced; tenant = Some tenant }))
    d.conns

let stop_daemon d =
  List.iter
    (fun (_, c) ->
       (try
          Client.send_request c Protocol.End_req;
          let rec drain () =
            match Client.read_frame c with Protocol.Bye _ -> () | _ -> drain ()
          in
          drain ()
        with Client.Error _ | Protocol.Error _ | Sys_error _ -> ());
       Client.close c)
    d.conns;
  Serve.stop d.serve;
  Thread.join d.thread;
  if Sys.file_exists d.journal then Sys.remove d.journal

type reply = { rid : string; key : int; sent : float; latency : float; line : (string, string) result }

(* Closed loop: send one job, wait for its result frame, send the next. *)
let stream conn lines =
  List.map
    (fun (key, id, line) ->
       let t0 = now () in
       Client.send_request conn (Protocol.Job line);
       let rec wait () =
         match Client.read_frame conn with
         | Protocol.Result { id = rid; line } when rid = id -> Ok line
         | Protocol.Rejected { id = Some rid; reason } when rid = id -> Error reason
         | Protocol.Rejected { id = None; reason } -> Error reason
         | _ -> wait ()
       in
       let line = try wait () with Client.Error m | Protocol.Error m -> Error m in
       { rid = id; key; sent = t0; latency = now () -. t0; line })
    lines

(* Both tenants at once; returns the replies and the wall time. *)
let both d per_tenant =
  let out = Array.make (List.length d.conns) [] in
  let t0 = now () in
  let threads =
    List.mapi
      (fun i (tenant, conn) ->
         Thread.create (fun () -> out.(i) <- stream conn (List.assoc tenant per_tenant)) ())
      d.conns
  in
  List.iter Thread.join threads;
  (List.concat (Array.to_list out), now () -. t0)

let split lines =
  List.map
    (fun tenant -> (tenant, List.filter_map (fun (t, x) -> if t = tenant then Some x else None) lines))
    (Array.to_list Jobs.tenants)

let pass_lines specs ~pass =
  split
    (List.map
       (fun (s : Jobs.spec) -> (s.Jobs.tenant, (s.Jobs.key, Jobs.id ~pass s, Jobs.render ~pass s)))
       specs)

let warmup_lines ~tiny ~seed =
  split
    (List.mapi
       (fun k (tenant, id, line) -> (tenant, (-1 - k, id, line)))
       (Jobs.warmup ~tiny Jobs.Serve_stream ~seed))

(* The result line without its timing fields — the canonical bytes. *)
let canonical line =
  match Str.search_forward (Str.regexp_string ",\"queue_wait_s\":") line 0 with
  | i -> String.sub line 0 i ^ "}"
  | exception Not_found -> line

let completed line =
  match Str.search_forward (Str.regexp_string "\"outcome\":\"completed\"") line 0 with
  | _ -> true
  | exception Not_found -> false

let field_float line key =
  match Str.search_forward (Str.regexp (Printf.sprintf "\"%s\":\\([-0-9.eE+]+\\)" key)) line 0 with
  | _ -> float_of_string (Str.matched_group 1 line)
  | exception Not_found -> 0.0

let run_serve_workload ~tiny ~traced ~seed ~seconds ~dir =
  let specs = Jobs.pass ~tiny Jobs.Serve_stream ~seed in
  if not tiny then
    prewarm ~threads:(Jobs.threads Jobs.Serve_stream)
      (List.map
         (fun (s : Jobs.spec) ->
            (Manifest.parse_line ~index:0 (Jobs.render ~pass:0 s)).Manifest.job)
         specs);
  let tag = Printf.sprintf "serve-%d" (Unix.getpid ()) in
  let warm_attempted = ref 0 and warm_failed = ref 0 in
  let setup_once () =
    Spans.time "setup" (fun sid ->
        let lines = Spans.time ~parent:sid "setup.inputs" (fun _ -> warmup_lines ~tiny ~seed) in
        let d = Spans.time ~parent:sid "setup.daemon" (fun _ -> start_daemon ~dir ~tag ~traced:false) in
        Spans.time ~parent:sid "setup.warmup" (fun _ ->
            let replies, _ = both d lines in
            List.iter
              (fun r ->
                 incr warm_attempted;
                 if Result.is_error r.line then incr warm_failed)
              replies);
        d)
  in
  let setup, d = set_up ~k:(Jobs.threads Jobs.Serve_stream) ~teardown:stop_daemon setup_once in
  let replies = ref [] and traced_replies = ref [] in
  let pass_no = ref 0 in
  let jr = new_rec () in
  (* The daemon is idle between passes, so the collection [run_passes]
     makes before each one keeps a pass's memory peak independent of
     earlier passes' garbage. *)
  let one_pass ~traced () =
    let p0 = now () in
    let rs, wall = both d (pass_lines specs ~pass:!pass_no) in
    incr pass_no;
    if traced then begin
      Spans.add "pass" p0 (p0 +. wall);
      sample_ctable jr;
      traced_replies := List.rev_append rs !traced_replies
    end;
    replies := List.rev_append rs !replies;
    (wall, List.map (fun r -> r.latency) rs)
  in
  let result =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () ->
         if not traced then (run_passes ~budget:seconds (one_pass ~traced:false), [])
         else begin
           let untraced = run_passes ~budget:(seconds /. 3.0) (one_pass ~traced:false) in
           set_tracing d ~traced:true;
           Obs.set_enabled true;
           let snap0 = Obs.Metrics.snapshot () and gc0 = Gc.quick_stat () in
           let passes = run_passes ~budget:(2.0 *. seconds /. 3.0) (one_pass ~traced:true) in
           add_gc jr gc0 (Gc.quick_stat ());
           let snap = Obs.Metrics.diff snap0 (Obs.Metrics.snapshot ()) in
           let journal_bytes =
             try float_of_int (Unix.stat d.journal).Unix.st_size with Unix.Unix_error _ -> 0.0
           in
           List.iter
             (fun r ->
                match r.line with
                | Ok line ->
                  let q = field_float line "queue_wait_s" and run = field_float line "run_s" in
                  let dd = field_float line "dd_s" and cv = field_float line "convert_s" in
                  let fl = field_float line "dmav_s" in
                  jr.jobs <- jr.jobs + 1;
                  jr.dd_s <- jr.dd_s +. dd;
                  jr.conv_s <- jr.conv_s +. cv;
                  jr.flat_s <- jr.flat_s +. fl;
                  jr.other_s <- jr.other_s +. (run -. dd -. cv -. fl);
                  jr.busy_den <- jr.busy_den +. run;
                  jr.queue_waits <- q :: jr.queue_waits;
                  jr.run_ss <- run :: jr.run_ss;
                  jr.overheads <- (r.latency -. q -. run) :: jr.overheads;
                  (match Str.search_forward (Str.regexp "\"converted_at\":\\([-0-9]+\\)") line 0 with
                   | _ ->
                     jr.conv_at <- float_of_string (Str.matched_group 1 line) :: jr.conv_at;
                     let n = (List.nth specs r.key).Jobs.body.Jobs.n in
                     jr.conv_amps <- jr.conv_amps +. Float.pow 2.0 (float_of_int n)
                   | exception Not_found -> ());
                  (* Submit, then the daemon's queue wait and run as children. *)
                  let sid = Spans.fresh () in
                  Spans.add ~id:sid ~job:r.rid "serve.submit" r.sent (r.sent +. r.latency);
                  ignore
                    (Spans.lay ~parent:sid ~job:r.rid r.sent
                       [ ("sched.queue_wait", q); ("sched.run", run) ])
                | Error _ -> ())
             !traced_replies;
           ( passes,
             layer_metrics jr ~snap ~pool_size:(Jobs.threads Jobs.Serve_stream)
               ~overhead:(overhead ~k:(Jobs.threads Jobs.Serve_stream) untraced passes)
               ~journal_bytes )
         end)
  in
  let passes, layers = result in
  (* Reference: the same pinned lines run in-process through the batch
     scheduler; every reply must be byte-equal to its job's line there
     (ids differ by pass only). *)
  let refs =
    Spans.time "references" (fun _ ->
        let resolved =
          List.map
            (fun (s : Jobs.spec) -> Manifest.parse_line ~index:s.Jobs.key (Jobs.render ~pass:0 s))
            specs
        in
        let results =
          Pool.with_pool (Jobs.threads Jobs.Serve_stream) (fun pool ->
              Sched.run_jobs ~pool ~slots:1 (List.map (fun r -> r.Manifest.job) resolved))
        in
        Array.of_list
          (List.map2
             (fun (r : Manifest.resolved) jr -> Manifest.result_line ~timings:false ~seed:r.Manifest.seed jr)
             resolved results))
  in
  let failed = ref !warm_failed in
  List.iter
    (fun r ->
       let ok =
         match r.line with
         | Error m ->
           Printf.eprintf "job %s failed: %s\n%!" r.rid m;
           false
         | Ok line ->
           let expected =
             Str.global_replace
               (Str.regexp_string (Printf.sprintf "\"id\":\"p0-%d\"" r.key))
               (Printf.sprintf "\"id\":\"%s\"" r.rid) refs.(r.key)
           in
           let same = String.equal (canonical line) expected && completed expected in
           if not same then Printf.eprintf "job %s: %s\n  expected %s\n%!" r.rid line expected;
           same
       in
       if not ok then incr failed)
    !replies;
  { setup; passes; attempted = !warm_attempted + List.length !replies; failed = !failed; layers }

(* ------------------------------------------------------------------ *)
(* Peak memory: one pass in a fresh process                            *)
(* ------------------------------------------------------------------ *)

(* What [--rss-probe] runs: the inputs, the pool or daemon, and one pass
   (for serve, after the warm-up), then the process's VmHWM. A fresh
   process reads the same peak for the same work; the measuring process
   has pre-warmed, set up three times and held references, and the OCaml
   heap keeps whatever it once grew to. *)
let rss_probe ~tiny w ~seed ~dir =
  (match w with
   | Jobs.Serve_stream ->
     let d =
       start_daemon ~dir ~tag:(Printf.sprintf "probe-%d" (Unix.getpid ())) ~traced:false
     in
     Fun.protect
       ~finally:(fun () -> stop_daemon d)
       (fun () ->
          ignore (both d (warmup_lines ~tiny ~seed));
          ignore (both d (pass_lines (Jobs.pass ~tiny w ~seed) ~pass:0)))
   | _ ->
     let jobs = resolve ~tiny w ~seed in
     Pool.with_pool (Jobs.threads w) (fun pool ->
         List.iter
           (fun c ->
              ignore (Driver.run ~pool c.job.Sched.config c.job.Sched.circuit);
              Gc.full_major ())
           jobs));
  Printf.printf "%.17g\n" (peak_rss_mb ())

let measure_rss ~tiny w ~seed ~dir =
  let args =
    [ "--workload"; Jobs.name w; "--seed"; string_of_int seed; "--seconds"; "0"; "--trace"; "0";
      "--out"; dir; "--rss-probe" ]
    @ if tiny then [ "--tiny" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic, float_of_string_opt line with
  | Unix.WEXITED 0, Some mb -> mb
  | _ -> failwith "the peak-memory probe failed"

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~traced ~w ~seed ~rss_mb o =
  let k = Jobs.threads w in
  let e2e =
    [ ("wall_s", wall_of ~k o.passes); ("job_p50_s", job_p50_of ~k o.passes);
      ("peak_rss_mb", rss_mb); ("setup_s", Pct.median o.setup) ]
  in
  let unit_of name = List.assoc name (end_to_end @ per_layer) in
  let all = List.concat_map (fun p -> p.lats) o.passes in
  let p95 = Pct.tail 0.95 all in
  let field f = List.map f o.passes in
  Printf.printf "workload %s seed %d: %d passes, mean steal %.1f%%, %d jobs attempted, %d failed\n"
    (Jobs.name w) seed (List.length o.passes)
    (100.0 *. Stats.mean (field (fun p -> p.steal)))
    o.attempted o.failed;
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %14.6f %s\n" k v (unit_of k))
    (if traced then o.layers else e2e);
  Printf.printf "  job_p95_s                          %s (%d samples)\n"
    (match p95 with Some v -> Printf.sprintf "%14.6f s" v | None -> "   n/a: fewer than 200")
    (List.length all);
  let list xs = "[" ^ String.concat "," (List.map jnum xs) ^ "]" in
  Printf.printf
    "detail: {\"workload\":%S,\"seed\":%d,\"trace\":%b,\"passes\":%d,\"job_samples\":%d,\"job_p95_s\":%s,\"failed_frac\":%s,\"pass_walls_s\":%s,\"pass_job_p50_s\":%s,\"pass_steal\":%s,\"setup_reps_s\":%s,\"end_to_end\":{%s}}\n"
    (Jobs.name w) seed traced (List.length o.passes) (List.length all)
    (match p95 with Some v -> jnum v | None -> "null")
    (jnum (ratio (float_of_int o.failed) (float_of_int (Int.max 1 o.attempted))))
    (list (field (fun p -> p.wall))) (list (field (fun p -> Pct.median p.lats)))
    (list (field (fun p -> p.steal))) (list o.setup)
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (jnum v)) e2e));
  let metrics = if traced then o.layers else e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (jnum v) (unit_of k))
          metrics))

(* ------------------------------------------------------------------ *)
(* Self-tests                                                          *)
(* ------------------------------------------------------------------ *)

let selftest () =
  let fails = ref 0 in
  let check name ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
    if not ok then incr fails
  in
  List.iter
    (fun w ->
       let render seed =
         String.concat "\n" (List.map (Jobs.render ~pass:0) (Jobs.pass w ~seed))
         ^ String.concat "\n" (List.map (fun (_, _, l) -> l) (Jobs.warmup w ~seed))
       in
       check (Jobs.name w ^ ": same seed gives byte-identical job specs") (render 7 = render 7);
       check (Jobs.name w ^ ": another seed gives other circuits") (render 7 <> render 8);
       let mix seed = List.sort compare (List.map (fun s -> s.Jobs.body) (Jobs.pass w ~seed)) in
       check (Jobs.name w ^ ": the job mix does not depend on the seed") (mix 7 = mix 8))
    Jobs.workloads;
  let xs k = List.init k (fun i -> float_of_int (i + 1)) in
  check "p95 of 200 samples has 10 beyond it" (Pct.tail 0.95 (xs 200) = Some 190.0);
  check "p95 of 199 samples is not reported" (Pct.tail 0.95 (xs 199) = None);
  check "median of an even count" (Float.equal (Pct.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "lower quartile is the nearest-rank 25th percentile"
    (Float.equal (lower_quartile (xs 4)) 1.0 && Float.equal (lower_quartile (xs 5)) 2.0);
  check "canonical line drops timings"
    (canonical {|{"id":"a","p0":1,"error":null,"queue_wait_s":0.1,"run_s":0.2}|}
     = {|{"id":"a","p0":1,"error":null}|});
  check "dd cache counts parse"
    (dd_cache_counts "vnodes=1/2 mv=3/1 mm=0/4 vadd=1/1 madd=0/0 mem=1KB" = (4.0, 10.0));
  if !fails > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]\n\
    \                 [--rss-probe]\n\
    \       bench.exe metrics | selftest";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "metrics" ] ->
    List.iter (fun w -> Printf.printf "workload %s\n" (Jobs.name w)) Jobs.workloads;
    List.iter (fun (k, u) -> Printf.printf "end_to_end %s %s\n" k u) end_to_end;
    List.iter (fun (k, u) -> Printf.printf "per_layer %s %s\n" k u) per_layer
  | [ "selftest" ] -> selftest ()
  | args ->
    let rec parse acc = function
      | [] -> acc
      | ("--tiny" | "--rss-probe") as flag :: rest -> parse ((flag, "1") :: acc) rest
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let w = match Jobs.of_name (get "workload") with Some w -> w | None -> usage () in
    let seed = int_of_string (get "seed") in
    let seconds = float_of_string (get "seconds") in
    let traced = get "trace" = "1" in
    let tiny = List.mem_assoc "--tiny" opts in
    let dir = Option.value (List.assoc_opt "out" opts) ~default:"perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    if List.mem_assoc "--rss-probe" opts then rss_probe ~tiny w ~seed ~dir
    else begin
      Spans.on := traced;
      let o =
        match w with
        | Jobs.Serve_stream -> run_serve_workload ~tiny ~traced ~seed ~seconds ~dir
        | _ -> run_cold_workload ~tiny ~traced w ~seed ~seconds
      in
      if traced then
        Spans.write (Filename.concat dir (Printf.sprintf "spans-%s-s%d.json" (Jobs.name w) seed));
      let rss_mb = if traced then nan else measure_rss ~tiny w ~seed ~dir in
      print_result ~traced ~w ~seed ~rss_mb o
    end
