(* The driver owns everything an engine does not: the conversion policy
   (EWMA or fixed index), cooperative cancellation, per-gate trace records,
   peak-memory tracking, the per-phase Obs spans, and the explicit DD→flat
   transition. Every gate of every run is applied by one [step] inside one
   [loop]: the DD phase and the flat phase of [run], and [run_engine]'s
   dense engine. A DD-only run is [run] that never converts, a DMAV-only
   run [run] that converts before the first gate. The planner picks each
   flat gate's kernel when it compiles the gate, and the step reads what
   the gate ran off that compiled form. *)

exception Cancelled

type result = {
  n : int;
  gates : int;
  final : Engine.final_state;
  converted_at : int option;
  seconds_total : float;
  seconds_dd : float;
  seconds_convert : float;
  seconds_dmav : float;
  conversion_stats : Convert.stats option;
  trace : Engine.gate_record list;
  peak_memory_bytes : int;
  dmav_gates_cached : int;
  dmav_gates_uncached : int;
  dmav_gates_local : int;
  dmav_cache_hits : int;
  modeled_macs : float;
  fusion_stats : Fusion.stats option;
  order : Order.t option;
}

(* Per-phase spans: the global metrics accumulate across runs, while each
   run's seconds_* fields are the same measurements taken locally by
   [Obs.timed] — one clock pair per phase. *)
let s_dd_phase = Obs.span "sim.dd_phase"
let s_convert = Obs.span "sim.convert"
let s_dmav_phase = Obs.span "sim.dmav_phase"
let s_flat_plan = Obs.span "sim.flat_plan"
let c_runs = Obs.counter "sim.runs"
let c_gates = Obs.counter "sim.gates"
let c_dd_gates = Obs.counter "sim.gates_dd"
let c_dmav_gates = Obs.counter "sim.gates_dmav"
let c_conversions = Obs.counter "sim.conversions"
let s_order_score = Obs.span "order.score"
let c_order_static = Obs.counter "order.static.applied"
let s_logicalize = Obs.span "sim.logicalize"

(* The streamed flat phase: gates the executor ran while the plan was
   still running, the executor's window (first gate wait to stop) and
   the part of it spent waiting for the planner. *)
let c_streamed = Obs.counter "sim.gates_streamed"
let s_stream = Obs.span "sim.flat_stream"
let s_stream_wait = Obs.span "sim.flat_stream_wait"

(* Flat-phase kernels, by the engine's pick. Without [dense_dispatch] the
   cached/uncached counts mirror dmav.kernel.*; with it they reflect the
   pick among dense (unfused single-qubit ops only), local, Run and
   cached. The local count is the part of the uncached one that ran on
   the local leg. *)
let c_disp_cached = Obs.counter "dmav.dispatch.cached"
let c_disp_uncached = Obs.counter "dmav.dispatch.uncached"
let c_disp_dense = Obs.counter "dmav.dispatch.dense"
let c_disp_local = Obs.counter "dmav.dispatch.local"

(* The flat phase's planner: the remaining ops fused per config, each
   output gate compiled at the run's pool size ([Fusion.compile]) and
   handed to [emit] as soon as it is final. Every mode builds its gates
   with [Fusion.of_op]: an op of support at most two is its narrow form,
   and a DD is built only for any other op or when a product needs DDMM.
   An op survives as [xo_op] only without fusion, which is what keeps it
   eligible for the dense kernel. [poll] runs before each input op, in
   every mode. Returns the fusion stats. *)
let s_compile = Obs.span "plan.compile"

let flat_plan (ctx : Engine.ctx) ~n ~first_index ~poll ~emit ops =
  let p = ctx.Engine.package in
  let threads = Pool.size ctx.Engine.pool in
  let j = ref first_index in
  let out ?op name g =
    let dense = if ctx.Engine.cfg.Config.dense_dispatch then op else None in
    let g = Obs.with_span s_compile (fun () -> Fusion.compile p ~n ~threads ?op:dense g) in
    emit { Engine.xo_index = !j; xo_name = name; xo_op = op; xo_gate = Some g };
    incr j
  in
  match ctx.Engine.cfg.Config.fusion with
  | Config.No_fusion ->
    List.iter (fun op -> poll (); out ~op (Circuit.op_name op) (Fusion.of_op p ~n op)) ops;
    None
  | Config.Dmav_aware -> Some (Fusion.dmav_aware_iter ~poll p ~n ~emit:(out "fused") ops)
  | Config.K_operations k -> Some (Fusion.k_operations_iter ~poll p ~n ~k ~emit:(out "kops") ops)

(* --- qubit-order plumbing (ISSUE 8) -------------------------------- *)

(* The pre-simulation scoring pass: remap the circuit when the mode asks
   for it and the scored order strictly beats the identity. Returns the
   (possibly remapped) circuit plus the applied order
   (logical qubit -> register position). *)
let prepare_order (cfg : Config.t) (c : Circuit.t) =
  match cfg.Config.order with
  | Config.No_order -> (c, None)
  | Config.Static_order ->
    let o, _ = Obs.timed s_order_score (fun () -> Order.static_order c) in
    if Order.is_identity o then (c, None)
    else begin
      Obs.incr c_order_static;
      (Circuit.remap c ~n:c.Circuit.n (Order.to_array o), Some o)
    end

(* Permute a physical-order flat buffer into the logical basis. Index 0
   is a fixed point of every order, which is why `--order none`
   fingerprints stay byte-identical. A copy of unboxed floats, indices
   mapped a byte at a time ([Order.byte_tables]). *)
let logicalize ord buf =
  match ord with
  | None -> buf
  | Some ord ->
    Obs.with_span s_logicalize (fun () ->
        let tables = Order.byte_tables ord in
        let bytes = Array.length tables in
        let len = Buf.length buf in
        let out = Buf.create len in
        let src = buf.Buf.data and dst = out.Buf.data in
        for i = 0 to len - 1 do
          let j = ref 0 in
          for b = 0 to bytes - 1 do
            j := !j lor tables.(b).((i lsr (8 * b)) land 255)
          done;
          dst.{2 * i} <- src.{2 * !j};
          dst.{(2 * i) + 1} <- src.{(2 * !j) + 1}
        done;
        out)

(* Per-run state shared by every step: the cancel poll, the EWMA monitor
   and the accounting the result reports. *)
type run = {
  cfg : Config.t;
  n : int;
  check_cancel : unit -> unit;
  monitor : Ewma.t;
  mutable trace : Engine.gate_record list;
  mutable peak_mem : int;
  mutable cached_gates : int;
  mutable uncached_gates : int;
  mutable local_gates : int;
  mutable cache_hits : int;
  mutable modeled : float;
}

let bump_mem r m = if m > r.peak_mem then r.peak_mem <- m

(* What a flat-phase gate ran, off its compiled form, counted: the
   kernel, its modeled MACs and its cache hits. A flat-phase op with no
   compiled form is the dense engine's. *)
let account r (xo : Engine.exec_op) =
  match xo.Engine.xo_gate, xo.Engine.xo_op with
  | Some g, _ ->
    r.modeled <- r.modeled +. Cost.dispatch_modeled_macs g.Flat_gate.dispatch;
    (match g.Flat_gate.body with
     | Flat_gate.Dmav prog when prog.Flat_gate.cached ->
       Obs.incr c_disp_cached;
       r.cached_gates <- r.cached_gates + 1;
       r.cache_hits <- r.cache_hits + prog.Flat_gate.hits;
       Engine.Dmav_cached
     | Flat_gate.Dmav _ ->
       Obs.incr c_disp_uncached;
       r.uncached_gates <- r.uncached_gates + 1;
       Engine.Dmav_uncached
     | Flat_gate.Local _ ->
       Obs.incr c_disp_uncached;
       Obs.incr c_disp_local;
       r.uncached_gates <- r.uncached_gates + 1;
       r.local_gates <- r.local_gates + 1;
       Engine.Dmav_local
     | Flat_gate.Dense _ ->
       Obs.incr c_disp_dense;
       Engine.Dense_direct)
  | None, Some op ->
    Obs.incr c_disp_dense;
    r.modeled <- r.modeled +. Cost.dense_direct_macs ~n:r.n op;
    Engine.Dense_direct
  | None, None -> invalid_arg "Driver.step: a flat gate with neither form"

(* The one place a gate is applied: the cancel poll, the timed
   [apply_op] on [pool], then for flat engines the kernel counts, for DD
   engines one size read feeding the EWMA, and, when the config traces,
   the gate's record. Returns the EWMA verdict, [Stay] for flat
   engines. *)
let step (type s) (module E : Engine.ENGINE with type state = s) st r ~pool
    (xo : Engine.exec_op) =
  r.check_cancel ();
  let (), dt = Timer.time (fun () -> E.apply_op st ~pool xo) in
  let dd_size, verdict, dispatch =
    match E.trace_phase with
    | Engine.Dd_phase ->
      let size = E.size_metric st in
      (size, Ewma.observe r.monitor (float_of_int size), None)
    | Engine.Conversion | Engine.Dmav_phase -> (0, Ewma.Stay, Some (account r xo))
  in
  if r.cfg.Config.trace then begin
    let disp = Option.map (fun g -> g.Flat_gate.dispatch) xo.Engine.xo_gate in
    r.trace <-
      { Engine.index = xo.Engine.xo_index;
        name = xo.Engine.xo_name;
        seconds = dt;
        phase = E.trace_phase;
        dd_size;
        ewma = Ewma.value r.monitor;
        dispatch;
        price = Option.map (fun d -> d.Cost.price) disp;
        support = Option.bind disp (fun d -> Option.map Bits.popcount d.Cost.support) }
      :: r.trace
  end;
  verdict

(* The one gate loop: steps gates [from, ...) of [xo_of] on [pool] while
   [more] says the next one exists and until [stop] (given each gate's
   index and verdict) says so, compacting on the configured interval.
   Returns the index of the first gate not stepped. *)
let loop (type s) ?(stop = fun _ _ -> false) (module E : Engine.ENGINE with type state = s) st r
    ~pool ?(from = 0) ~more ~xo_of () =
  let i = ref from and stopped = ref false in
  while (not !stopped) && more !i do
    let xo = xo_of !i in
    let verdict = step (module E) st r ~pool xo in
    stopped := stop xo.Engine.xo_index verdict;
    let every = r.cfg.Config.compact_every in
    if every > 0 && (!i + 1) mod every = 0 then begin
      bump_mem r (E.memory_bytes st);
      E.compact st
    end;
    incr i
  done;
  Obs.add (match E.trace_phase with Engine.Dd_phase -> c_dd_gates | _ -> c_dmav_gates) (!i - from);
  bump_mem r (E.memory_bytes st);
  !i

(* --- the flat phase: plan, stream, run -------------------------------- *)

(* The planner's hand-off to the executor. The planner writes slot k,
   then publishes k + 1; [finished] says the plan is complete, [failed]
   that either side raised. The executor waits on [ready] (spin, then
   park); every change it may wait for is followed by a wake. *)
type stream = {
  slots : Engine.exec_op array;
  published : int Atomic.t;
  finished : bool Atomic.t;
  failed : bool Atomic.t;
  ready : Waiter.t;
}

let no_gate = { Engine.xo_index = -1; xo_name = ""; xo_op = None; xo_gate = None }

let stream_create capacity =
  { slots = Array.make capacity no_gate;
    published = Atomic.make 0;
    finished = Atomic.make false;
    failed = Atomic.make false;
    ready = Waiter.create () }

let publish s xo =
  let k = Atomic.get s.published in
  s.slots.(k) <- xo;
  Atomic.set s.published (k + 1);
  Waiter.wake s.ready

let settle s flag =
  Atomic.set flag true;
  Waiter.wake s.ready

(* The executor may step gate [i]: it is published and the plan is still
   running. Once the plan is done the executor stops after its current
   gate, and the pool's domains take the rest. *)
let await s i =
  let settled () =
    Atomic.get s.published > i || Atomic.get s.finished || Atomic.get s.failed
  in
  if not (settled ()) then Obs.with_span s_stream_wait (fun () -> Waiter.await s.ready settled);
  not (Atomic.get s.finished || Atomic.get s.failed)

exception Planner_stopped

(* The flat phase's gates, planned and run. On a pool of one domain the
   plan completes first and the gates run after it. On a bigger pool one
   [Pool.run] overlaps them: worker 0 (the caller, which owns the DD
   package) plans and compiles, worker 1 runs each compiled gate as soon
   as it is published, on an inline size-1 pool, reading nothing of the
   package. When the plan is done the executor stops after its current
   gate and the remaining gates run on the whole pool. A failure on
   either side stops the other within one gate; the caller's exception
   wins, as in [Pool.run]. The job holds the pool's admission lock for
   the whole plan, so a batch slot sharing the pool waits for it
   (DESIGN.md §9 has the multi-slot measurement). Returns the fusion
   stats. *)
let flat_phase (type s) (module E : Engine.ENGINE with type state = s) st r (ctx : Engine.ctx)
    ~n ~first_index ops =
  let pool = ctx.Engine.pool in
  let s = stream_create (List.length ops) in
  let plan ~poll =
    Obs.with_span s_flat_plan (fun () ->
        flat_plan ctx ~n ~first_index ~poll ~emit:(publish s) ops)
  in
  (* A gate's slot is cleared as it is stepped, so a compiled gate lives
     from its compilation to its run, not to the end of the phase. *)
  let xo_of i =
    let xo = s.slots.(i) in
    s.slots.(i) <- no_gate;
    xo
  in
  let executed, fusion_stats =
    if Pool.size pool = 1 then (0, plan ~poll:r.check_cancel)
    else
      Pool.with_pool 1 (fun inline ->
          let executed = ref 0 and stats = ref None in
          let poll () =
            if Atomic.get s.failed then raise Planner_stopped;
            r.check_cancel ()
          in
          let fail e =
            settle s s.failed;
            raise e
          in
          Pool.run pool (fun w ->
              if w = 0 then begin
                (match plan ~poll with
                 | st -> stats := st
                 | exception Planner_stopped -> ()
                 | exception e -> fail e);
                settle s s.finished
              end
              else if w = 1 then begin
                match
                  Obs.with_span s_stream (fun () ->
                      loop (module E) st r ~pool:inline ~more:(await s) ~xo_of ())
                with
                | k ->
                  Obs.add c_streamed k;
                  executed := k
                | exception e -> fail e
              end);
          (!executed, !stats))
  in
  let total = Atomic.get s.published in
  ignore (loop (module E) st r ~pool ~from:executed ~more:(fun i -> i < total) ~xo_of ());
  (* The plan is done: the package holds every gate matrix it built. *)
  bump_mem r (E.memory_bytes st + Dd.memory_bytes ctx.Engine.package);
  fusion_stats

(* Set-up shared by both entry points: the pool (created for the call
   unless supplied), the run counters, the static qubit order, the engine
   context and the per-run state. Cancellation is polled once per gate
   (and around the conversion), never inside a kernel, so the check costs
   one closure call per gate and its latency is one gate application. *)
let with_run ?cancel ?pool ?package (cfg : Config.t) (c : Circuit.t) body =
  if cfg.Config.threads < 1 then
    invalid_arg
      (Printf.sprintf "Driver: Config.threads must be >= 1 (got %d)" cfg.Config.threads);
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create cfg.Config.threads in
  Fun.protect
    ~finally:(fun () ->
        if own_pool then Pool.shutdown pool;
        if Check.enabled () then Check.observe ())
    (fun () ->
       Obs.incr c_runs;
       Obs.add c_gates (Circuit.num_gates c);
       let c, sigma = prepare_order cfg c in
       let n = c.Circuit.n in
       let package = match package with Some p -> p | None -> Dd.create () in
       let ctx = { Engine.cfg; pool; package } in
       let monitor = Ewma.create ~beta:cfg.Config.beta ~epsilon:cfg.Config.epsilon in
       ignore (Ewma.observe monitor (float_of_int n));
       let check_cancel =
         match cancel with
         | None -> fun () -> ()
         | Some poll -> fun () -> if poll () then raise Cancelled
       in
       let r =
         { cfg; n; check_cancel; monitor; trace = []; peak_mem = 0; cached_gates = 0;
           uncached_gates = 0; local_gates = 0; cache_hits = 0; modeled = 0.0 }
       in
       body r ctx c sigma)

(* The result record of both entry points. Results are always
   logical-basis: flat buffers are permuted here; a final DD state stays
   physical and carries its order [ord]. *)
let result_of r (c : Circuit.t) ~ord ?converted_at ?conversion_stats ?fusion_stats
    ?(seconds_dd = 0.0) ?(seconds_convert = 0.0) ?(seconds_dmav = 0.0) final =
  let final, order =
    match final with
    | Engine.Flat_state buf -> (Engine.Flat_state (logicalize ord buf), None)
    | Engine.Dd_state _ as f -> (f, ord)
  in
  { n = c.Circuit.n;
    gates = Circuit.num_gates c;
    final;
    order;
    converted_at;
    seconds_total = seconds_dd +. seconds_convert +. seconds_dmav;
    seconds_dd;
    seconds_convert;
    seconds_dmav;
    conversion_stats;
    trace = List.rev r.trace;
    peak_memory_bytes = r.peak_mem;
    dmav_gates_cached = r.cached_gates;
    dmav_gates_uncached = r.uncached_gates;
    dmav_gates_local = r.local_gates;
    dmav_cache_hits = r.cache_hits;
    modeled_macs = r.modeled;
    fusion_stats }

let run ?cancel ?pool ?package (cfg : Config.t) (c : Circuit.t) =
  with_run ?cancel ?pool ?package cfg c (fun r ctx c sigma ->
      let n = c.Circuit.n in
      let gates = Circuit.num_gates c in

      (* ---- DD phase: step the DD engine until the policy trips ------ *)
      let dd = Dd_engine.init ctx.Engine.package ~n in
      let want_convert =
        ref (match cfg.Config.policy with Config.Convert_at k -> k < 0 | _ -> false)
      in
      let stop index verdict =
        want_convert :=
          (match cfg.Config.policy with
           | Config.Ewma_policy -> verdict = Ewma.Convert
           | Config.Convert_at k -> index >= k
           | Config.Never_convert -> false);
        !want_convert
      in
      let xo_of i = Engine.exec_of_op i c.Circuit.ops.(i) in
      let i, seconds_dd =
        Obs.timed s_dd_phase (fun () ->
            let count = if !want_convert then 0 else gates in
            loop ~stop (module Dd_engine) dd r ~pool:ctx.Engine.pool ~more:(fun i -> i < count)
              ~xo_of ())
      in
      Dd.observe_gauges ctx.Engine.package;
      if not !want_convert then
        result_of r c ~ord:sigma ~seconds_dd (Dd_engine.extract dd)
      else begin
        (* ---- Conversion: the explicit DD→flat transition ------------ *)
        r.check_cancel ();
        Obs.incr c_conversions;
        let (buf, conversion_stats), seconds_convert =
          Obs.timed s_convert (fun () ->
              Convert.parallel ctx.Engine.package ~pool:ctx.Engine.pool ~n (Dd_engine.edge dd))
        in
        if cfg.Config.trace then
          r.trace <-
            { Engine.index = i - 1; name = "dd->array"; seconds = seconds_convert;
              phase = Engine.Conversion; dd_size = 0; ewma = Ewma.value r.monitor;
              dispatch = None; price = None; support = None }
            :: r.trace;
        Dd_engine.release dd;

        (* ---- Flat phase: the DMAV engine of the configured precision - *)
        let fusion_stats = ref None in
        let flat (type s) (module E : Engine.ENGINE with type state = s) (seat : unit -> s) =
          let st, seconds_dmav =
            Obs.timed s_dmav_phase (fun () ->
                let remaining = Array.to_list (Array.sub c.Circuit.ops i (gates - i)) in
                let st = seat () in
                fusion_stats := flat_phase (module E) st r ctx ~n ~first_index:i remaining;
                st)
          in
          Dd.observe_gauges ctx.Engine.package;
          (E.extract st, seconds_dmav)
        in
        (* At [F32] seating demotes the converted f64 buffer once — the
           single rounding hand-off. *)
        let final, seconds_dmav =
          match cfg.Config.precision with
          | Config.F64 -> flat (module Dmav_engine) (fun () -> Dmav_engine.of_buf ~n buf)
          | Config.F32 -> flat (module Dmav_engine.F32) (fun () -> Dmav_engine.F32.of_buf ~n buf)
        in
        result_of r c ~ord:sigma ~converted_at:(i - 1) ~conversion_stats
          ?fusion_stats:!fusion_stats ~seconds_dd ~seconds_convert ~seconds_dmav final
      end)

(* Run a whole circuit on one stand-alone (dense) engine, no conversion:
   the dense reference path, through the same loop. *)
let run_engine (type s) ?pool (module E : Engine.STANDALONE with type state = s)
    (cfg : Config.t) (c : Circuit.t) =
  with_run ?pool cfg c (fun r ctx c sigma ->
      let st = E.init ~n:c.Circuit.n in
      let _, seconds_dmav =
        Obs.timed s_dmav_phase (fun () ->
            let count = Circuit.num_gates c in
            loop (module E) st r ~pool:ctx.Engine.pool ~more:(fun i -> i < count)
              ~xo_of:(fun i -> Engine.exec_of_op i c.Circuit.ops.(i))
              ())
      in
      result_of r c ~ord:sigma ~seconds_dmav (E.extract st))

let amplitudes r =
  match r.final with
  | Engine.Flat_state buf -> buf
  | Engine.Dd_state { package; edge } ->
    logicalize r.order (Convert.sequential package ~n:r.n edge)

let amplitude r i =
  match r.final with
  | Engine.Flat_state buf -> Buf.get buf i
  | Engine.Dd_state { package; edge } ->
    let j = match r.order with None -> i | Some ord -> Order.permute_index ord i in
    Dd.vamplitude package edge j
