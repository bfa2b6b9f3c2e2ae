(* The driver owns everything an engine does not: the conversion policy
   (EWMA or fixed index), cooperative cancellation, per-gate trace records,
   peak-memory tracking, the per-phase Obs spans, and the explicit DD→flat
   transition. Every gate of every run is applied by one [step] inside one
   [loop]: the DD phase and the flat phase of [run], and [run_engine]'s
   single engine. The flat engine picks each gate's kernel itself. *)

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
  dmav_cache_hits : int;
  modeled_macs : float;
  fusion_stats : Fusion.stats option;
  order : Order.t option;
}

(* Per-phase spans: the global metrics accumulate across runs, while each
   run's seconds_* fields are the same measurements taken locally by
   [Obs.timed] — one clock pair per phase, no stopwatch plumbing. *)
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

(* Flat-phase kernels, by the engine's pick. Without [dense_dispatch] the
   cached/uncached counts mirror dmav.kernel.*; with it they reflect the
   three-way pick. *)
let c_disp_cached = Obs.counter "dmav.dispatch.cached"
let c_disp_uncached = Obs.counter "dmav.dispatch.uncached"
let c_disp_dense = Obs.counter "dmav.dispatch.dense"

(* A caller-supplied package (a warm handle's arena) must arrive in its
   just-reset state — [Warm] guarantees that; a mismatched workspace is
   replaced rather than trusted. *)
let make_ctx ?package ?workspace (cfg : Config.t) ~pool ~n =
  let workspace =
    match workspace with
    | Some ws when Dmav.workspace_n ws = n -> ws
    | _ -> Dmav.workspace ~n
  in
  let package = match package with Some p -> p | None -> Dd.create () in
  { Engine.cfg; pool; package; workspace }

(* The flat phase's executable gate stream: remaining ops as matrix DDs,
   fused per config. An op survives as [xo_op] only when it was not fused,
   which is what keeps it eligible for the dense kernel. DMAV-aware fusion
   prices every gate it scans ([Cost.priced_macs]); the kernel pick is
   not made here, the engine prices each gate for it as it applies it. *)
let flat_plan (ctx : Engine.ctx) ~n ~first_index ops =
  let p = ctx.Engine.package in
  let mats = List.map (Mat_dd.of_op p ~n) ops in
  let stream gates =
    Array.of_list
      (List.mapi
         (fun j (name, op, m) ->
            { Engine.xo_index = first_index + j; xo_name = name; xo_op = op; xo_mat = Some m })
         gates)
  in
  let fused name (ms, st) = (stream (List.map (fun m -> (name, None, m)) ms), Some st) in
  match ctx.Engine.cfg.Config.fusion with
  | Config.No_fusion ->
    (stream (List.map2 (fun op m -> (Circuit.op_name op, Some op, m)) ops mats), None)
  | Config.Dmav_aware -> fused "fused" (Fusion.dmav_aware p mats)
  | Config.K_operations k -> fused "kops" (Fusion.k_operations p ~k mats)

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
   fingerprints stay byte-identical. *)
let logicalize ord buf =
  match ord with
  | None -> buf
  | Some ord -> Buf.init (Buf.length buf) (fun i -> Buf.get buf (Order.permute_index ord i))

(* Per-run state shared by every step: the cancel poll, the EWMA monitor
   and the accounting the result reports. *)
type run = {
  cfg : Config.t;
  check_cancel : unit -> unit;
  monitor : Ewma.t;
  mutable trace : Engine.gate_record list;
  mutable peak_mem : int;
  mutable cached_gates : int;
  mutable uncached_gates : int;
  mutable cache_hits : int;
  mutable modeled : float;
}

let record r g = if r.cfg.Config.trace then r.trace <- g :: r.trace
let bump_mem r m = if m > r.peak_mem then r.peak_mem <- m

(* The one place a gate is applied: the cancel poll, the timed
   [apply_op], the kernel counts, for DD engines one size read feeding
   the EWMA, and the trace record. Returns the record (built whether or
   not it is kept) and the EWMA verdict, [Stay] for flat engines. *)
let step (type s) (module E : Engine.ENGINE with type state = s) st r (xo : Engine.exec_op) =
  r.check_cancel ();
  let stats, dt = Timer.time (fun () -> E.apply_op st xo) in
  (match stats.Engine.gs_dispatch with
   | Some Engine.Dmav_cached ->
     Obs.incr c_disp_cached;
     r.cached_gates <- r.cached_gates + 1
   | Some Engine.Dmav_uncached ->
     Obs.incr c_disp_uncached;
     r.uncached_gates <- r.uncached_gates + 1
   | Some Engine.Dense_direct -> Obs.incr c_disp_dense
   | None -> ());
  r.cache_hits <- r.cache_hits + stats.Engine.gs_cache_hits;
  r.modeled <- r.modeled +. stats.Engine.gs_modeled_macs;
  let dd_size, verdict =
    match E.trace_phase with
    | Engine.Dd_phase ->
      let size = E.size_metric st in
      (size, Ewma.observe r.monitor (float_of_int size))
    | Engine.Conversion | Engine.Dmav_phase -> (0, Ewma.Stay)
  in
  let g =
    { Engine.index = xo.Engine.xo_index;
      name = xo.Engine.xo_name;
      seconds = dt;
      phase = E.trace_phase;
      dd_size;
      ewma = Ewma.value r.monitor;
      dispatch = stats.Engine.gs_dispatch }
  in
  record r g;
  (g, verdict)

(* The one gate loop: steps gates [0, count) of [xo_of] until [stop]
   (given each gate's record and verdict) says so, compacting on the
   configured interval. Returns the number of gates stepped. *)
let loop (type s) ?(stop = fun _ _ -> false) (module E : Engine.ENGINE with type state = s) st r
    ~count ~xo_of =
  let i = ref 0 and stopped = ref false in
  while !i < count && not !stopped do
    let g, verdict = step (module E) st r (xo_of !i) in
    stopped := stop g verdict;
    let every = r.cfg.Config.compact_every in
    if every > 0 && (!i + 1) mod every = 0 then begin
      bump_mem r (E.memory_bytes st);
      E.compact st
    end;
    incr i
  done;
  Obs.add (match E.trace_phase with Engine.Dd_phase -> c_dd_gates | _ -> c_dmav_gates) !i;
  bump_mem r (E.memory_bytes st);
  !i

(* Hands an engine's state over once its gates are done. *)
let finish (type s) (module E : Engine.ENGINE with type state = s) st =
  E.observe st;
  let final = E.extract st in
  E.finalize st;
  final

(* Set-up shared by both entry points: the pool (created for the call
   unless supplied), the run counters, the static qubit order, the engine
   context and the per-run state. Cancellation is polled once per gate
   (and around the conversion), never inside a kernel, so the check costs
   one closure call per gate and its latency is one gate application. *)
let with_run ?cancel ?pool ?package ?workspace (cfg : Config.t) (c : Circuit.t) body =
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create (Int.max 1 cfg.Config.threads) in
  Fun.protect
    ~finally:(fun () ->
        if own_pool then Pool.shutdown pool;
        if Check.enabled () then Check.observe ())
    (fun () ->
       Obs.incr c_runs;
       Obs.add c_gates (Circuit.num_gates c);
       let c, sigma = prepare_order cfg c in
       let n = c.Circuit.n in
       let ctx = make_ctx ?package ?workspace cfg ~pool ~n in
       let monitor = Ewma.create ~beta:cfg.Config.beta ~epsilon:cfg.Config.epsilon in
       ignore (Ewma.observe monitor (float_of_int n));
       let check_cancel =
         match cancel with
         | None -> fun () -> ()
         | Some poll -> fun () -> if poll () then raise Cancelled
       in
       let r =
         { cfg; check_cancel; monitor; trace = []; peak_mem = 0; cached_gates = 0;
           uncached_gates = 0; cache_hits = 0; modeled = 0.0 }
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
    dmav_cache_hits = r.cache_hits;
    modeled_macs = r.modeled;
    fusion_stats }

let run ?cancel ?pool ?package ?workspace (cfg : Config.t) (c : Circuit.t) =
  with_run ?cancel ?pool ?package ?workspace cfg c (fun r ctx c sigma ->
      let n = c.Circuit.n in
      let gates = Circuit.num_gates c in

      (* ---- DD phase: step the DD engine until the policy trips ------ *)
      let dd = Dd_engine.init ctx ~n in
      let want_convert =
        ref (match cfg.Config.policy with Config.Convert_at k -> k < 0 | _ -> false)
      in
      let stop (g : Engine.gate_record) verdict =
        want_convert :=
          (match cfg.Config.policy with
           | Config.Ewma_policy -> verdict = Ewma.Convert
           | Config.Convert_at k -> g.Engine.index >= k
           | Config.Never_convert -> false);
        !want_convert
      in
      let xo_of i = Engine.exec_of_op i c.Circuit.ops.(i) in
      let i, seconds_dd =
        Obs.timed s_dd_phase (fun () ->
            loop ~stop (module Dd_engine) dd r ~count:(if !want_convert then 0 else gates)
              ~xo_of)
      in
      Dd_engine.observe dd;
      if not !want_convert then
        result_of r c ~ord:sigma ~seconds_dd (Dd_engine.extract dd)
      else begin
        (* ---- Conversion: the explicit DD→flat transition ------------ *)
        r.check_cancel ();
        Obs.incr c_conversions;
        let (buf, conversion_stats), seconds_convert =
          Obs.timed s_convert (fun () ->
              Convert.parallel (Dd_engine.package dd) ~pool:ctx.Engine.pool ~n
                (Dd_engine.edge dd))
        in
        record r
          { Engine.index = i - 1; name = "dd->array"; seconds = seconds_convert;
            phase = Engine.Conversion; dd_size = 0; ewma = Ewma.value r.monitor;
            dispatch = None };
        Dd_engine.release dd;

        (* ---- Flat phase: the DMAV engine of the configured precision - *)
        let fusion_stats = ref None in
        let flat (type s) (module E : Engine.ENGINE with type state = s) (seat : unit -> s) =
          let st, seconds_dmav =
            Obs.timed s_dmav_phase (fun () ->
                let remaining = Array.to_list (Array.sub c.Circuit.ops i (gates - i)) in
                let plan, fstats =
                  Obs.with_span s_flat_plan (fun () ->
                      flat_plan ctx ~n ~first_index:i remaining)
                in
                fusion_stats := fstats;
                let st = seat () in
                ignore (loop (module E) st r ~count:(Array.length plan) ~xo_of:(Array.get plan));
                st)
          in
          (finish (module E) st, seconds_dmav)
        in
        (* At [F32] seating demotes the converted f64 buffer once — the
           single rounding hand-off. *)
        let final, seconds_dmav =
          match cfg.Config.precision with
          | Config.F64 -> flat (module Dmav_engine) (fun () -> Dmav_engine.of_buf ctx ~n buf)
          | Config.F32 ->
            flat (module Dmav_engine.F32) (fun () -> Dmav_engine.F32.of_buf ctx ~n buf)
        in
        result_of r c ~ord:sigma ~converted_at:(i - 1) ~conversion_stats
          ?fusion_stats:!fusion_stats ~seconds_dd ~seconds_convert ~seconds_dmav final
      end)

(* Run a whole circuit on ONE engine, no conversion — the pure-DD,
   pure-DMAV and pure-dense reference paths, through the same loop. *)
let run_engine (type s) ?cancel ?pool ?package ?workspace
    (module E : Engine.ENGINE with type state = s) (cfg : Config.t) (c : Circuit.t) =
  with_run ?cancel ?pool ?package ?workspace cfg c (fun r ctx c sigma ->
      let st = E.init ctx ~n:c.Circuit.n in
      let dd = E.trace_phase = Engine.Dd_phase in
      let _, seconds =
        Obs.timed (if dd then s_dd_phase else s_dmav_phase) (fun () ->
            loop (module E) st r ~count:(Circuit.num_gates c)
              ~xo_of:(fun i -> Engine.exec_of_op i c.Circuit.ops.(i)))
      in
      let final = finish (module E) st in
      if dd then result_of r c ~ord:sigma ~seconds_dd:seconds final
      else result_of r c ~ord:sigma ~seconds_dmav:seconds final)

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
