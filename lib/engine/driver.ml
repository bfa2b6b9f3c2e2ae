(* The driver owns everything an engine does not: the conversion policy
   (EWMA or fixed index), cooperative cancellation, per-gate trace records,
   peak-memory tracking, the per-phase Obs spans, and the explicit DD→flat
   transition. Engines are stepped one [Engine.exec_op] at a time; inside
   the flat phase the driver additionally picks a kernel per gate
   (DMAV-cached / DMAV-uncached / dense direct) with the §3.2.3 cost model
   when [Config.dense_dispatch] is on. *)

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
  order : int array option;
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

(* Flat-phase kernel dispatch, by outcome. Without [dense_dispatch] the
   cached/uncached counts mirror dmav.kernel.*; with it they reflect the
   three-way pick. *)
let c_disp_cached = Obs.counter "dmav.dispatch.cached"
let c_disp_uncached = Obs.counter "dmav.dispatch.uncached"
let c_disp_dense = Obs.counter "dmav.dispatch.dense"

let count_dispatch = function
  | Some Engine.Dmav_cached -> Obs.incr c_disp_cached
  | Some Engine.Dmav_uncached -> Obs.incr c_disp_uncached
  | Some Engine.Dense_direct -> Obs.incr c_disp_dense
  | None -> ()

let make_check_cancel cancel =
  match cancel with
  | None -> fun () -> ()
  | Some poll -> fun () -> if poll () then raise Cancelled

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
   which is what keeps it eligible for the dense kernel. *)
let flat_plan (ctx : Engine.ctx) ~n ~first_index ops =
  let cfg = ctx.Engine.cfg in
  let p = ctx.Engine.package in
  let mats = List.map (fun op -> (Circuit.op_name op, Mat_dd.of_op p ~n op)) ops in
  let fusion_stats = ref None in
  let plan =
    match cfg.Config.fusion with
    | Config.No_fusion ->
      List.map2 (fun op (name, m) -> (name, Some op, m)) ops mats
    | Config.Dmav_aware ->
      let fused, st = Fusion.dmav_aware p (List.map snd mats) in
      fusion_stats := Some st;
      List.map (fun m -> ("fused", None, m)) fused
    | Config.K_operations k ->
      let fused, st = Fusion.k_operations p ~k (List.map snd mats) in
      fusion_stats := Some st;
      List.map (fun m -> ("kops", None, m)) fused
  in
  let exec =
    List.mapi
      (fun j (name, op, m) ->
         let disp =
           if cfg.Config.dense_dispatch then
             Some
               (Cost.dispatch p ~n ~threads:(Pool.size ctx.Engine.pool)
                  ~simd_width:cfg.Config.simd_width ?op m)
           else None
         in
         { Engine.xo_index = first_index + j;
           xo_name = name;
           xo_op = op;
           xo_mat = Some m;
           xo_dispatch = disp })
      plan
  in
  (exec, !fusion_stats)

(* --- qubit-order plumbing (ISSUE 8) -------------------------------- *)

(* Remap one op through [m] (register qubit -> physical position). Used
   for the gates applied after a dynamic sift moved levels around; the
   static order goes through [Circuit.remap] up front instead. *)
let map_op m = function
  | Circuit.Single { name; matrix; target; controls } ->
    Circuit.Single
      { name; matrix; target = m.(target); controls = List.map (Array.get m) controls }
  | Circuit.Two { name; matrix; q_hi; q_lo } ->
    Circuit.Two { name; matrix; q_hi = m.(q_hi); q_lo = m.(q_lo) }

(* Physical amplitude index of logical basis state [i]: bit [q] of [i]
   lands at bit position [ord.(q)]. Index 0 is a fixed point of every
   order, which is why `--order none` fingerprints stay byte-identical. *)
let phys_index ord i =
  let k = ref 0 in
  Array.iteri (fun q p -> k := !k lor (((i lsr q) land 1) lsl p)) ord;
  !k

(* The pre-simulation scoring pass: remap the circuit when the mode asks
   for it and the scored order strictly beats the identity. Returns the
   (possibly remapped) circuit plus the applied order
   (logical qubit -> register position). *)
let prepare_order (cfg : Config.t) (c : Circuit.t) =
  match cfg.Config.order with
  | Config.No_order -> (c, None)
  | Config.Static_order | Config.Sift_order ->
    let o, _ = Obs.timed s_order_score (fun () -> Order.static_order c) in
    if Order.is_identity o then (c, None)
    else begin
      Obs.incr c_order_static;
      let sigma = Order.to_array o in
      (Circuit.remap c ~n:c.Circuit.n sigma, Some sigma)
    end

(* Total order = static remap then dynamic sift moves:
   logical qubit [q] lives at physical position [cur.(sigma.(q))]. *)
let total_order sigma cur =
  match sigma, cur with
  | None, None -> None
  | Some s, None -> Some (Array.copy s)
  | None, Some m -> Some (Array.copy m)
  | Some s, Some m -> Some (Array.map (fun r -> m.(r)) s)

(* Permute a physical-order flat buffer into the logical basis. *)
let logicalize ord buf =
  match ord with
  | None -> buf
  | Some ord -> Buf.init (Buf.length buf) (fun i -> Buf.get buf (phys_index ord i))

(* Mutable per-run accounting shared by the hybrid run and [run_engine]. *)
type acc = {
  trace : Engine.gate_record list ref;
  record : Engine.gate_record -> unit;
  peak_mem : int ref;
  bump_mem : int -> unit;
  cached_gates : int ref;
  uncached_gates : int ref;
  cache_hits : int ref;
  modeled : float ref;
}

let make_acc (cfg : Config.t) =
  let trace = ref [] in
  let peak_mem = ref 0 in
  { trace;
    record = (fun r -> if cfg.Config.trace then trace := r :: !trace);
    peak_mem;
    bump_mem = (fun m -> if m > !peak_mem then peak_mem := m);
    cached_gates = ref 0;
    uncached_gates = ref 0;
    cache_hits = ref 0;
    modeled = ref 0.0 }

(* One cancellable, timed, traced engine step. *)
let step (type s) (module E : Engine.ENGINE with type state = s) st acc ~check_cancel
    ~ewma (xo : Engine.exec_op) =
  check_cancel ();
  let stats, dt = Timer.time (fun () -> E.apply_op st xo) in
  count_dispatch stats.Engine.gs_dispatch;
  (match stats.Engine.gs_cached with
   | Some true -> incr acc.cached_gates
   | Some false -> incr acc.uncached_gates
   | None -> ());
  acc.cache_hits := !(acc.cache_hits) + stats.Engine.gs_cache_hits;
  acc.modeled := !(acc.modeled) +. stats.Engine.gs_modeled_macs;
  acc.record
    { Engine.index = xo.Engine.xo_index;
      name = xo.Engine.xo_name;
      seconds = dt;
      phase = E.trace_phase;
      dd_size = (match E.trace_phase with Engine.Dd_phase -> E.size_metric st | _ -> 0);
      ewma;
      cached = stats.Engine.gs_cached;
      dispatch = stats.Engine.gs_dispatch };
  stats

let run ?cancel ?pool ?package ?workspace (cfg : Config.t) (c : Circuit.t) =
  let n = c.Circuit.n in
  let gates = Circuit.num_gates c in
  (* Cooperative cancellation: polled once per gate (and around the
     conversion), never inside a kernel, so the check costs one closure
     call per gate and cancellation latency is one gate application. *)
  let check_cancel = make_check_cancel cancel in
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create (Int.max 1 cfg.Config.threads) in
  Fun.protect
    ~finally:(fun () ->
        if own_pool then Pool.shutdown pool;
        if Check.enabled () then Check.observe ())
    (fun () ->
       Obs.incr c_runs;
       Obs.add c_gates gates;
       let c, sigma = prepare_order cfg c in
       (* [cur]: register qubit -> current DD level, once sifting has
          moved levels; [None] while the order is still the register
          order. Gates applied after a sift are remapped through it. *)
       let cur = ref None in
       let sift_attempts = ref 0 in
       let ctx = make_ctx ?package ?workspace cfg ~pool ~n in
       let monitor = Ewma.create ~beta:cfg.Config.beta ~epsilon:cfg.Config.epsilon in
       let acc = make_acc cfg in

       (* ---- DD phase: step the DD engine until the policy trips ----- *)
       let dd = Dd_engine.init ctx ~n in
       ignore (Ewma.observe monitor (float_of_int n));
       let converted_at = ref None in
       let i = ref 0 in
       let want_convert =
         ref (match cfg.Config.policy with Config.Convert_at k -> k < 0 | _ -> false)
       in
       let (), seconds_dd =
         Obs.timed s_dd_phase (fun () ->
             while !i < gates && not !want_convert do
               check_cancel ();
               let op = c.Circuit.ops.(!i) in
               let op = match !cur with None -> op | Some m -> map_op m op in
               let xo = Engine.exec_of_op !i op in
               let _stats, dt = Timer.time (fun () -> Dd_engine.apply_op dd xo) in
               let size = Dd_engine.size_metric dd in
               let verdict = Ewma.observe monitor (float_of_int size) in
               (match cfg.Config.policy with
                | Config.Ewma_policy -> if verdict = Ewma.Convert then want_convert := true
                | Config.Convert_at k -> if !i >= k then want_convert := true
                | Config.Never_convert -> ());
               acc.record
                 { Engine.index = !i; name = xo.Engine.xo_name; seconds = dt;
                   phase = Engine.Dd_phase; dd_size = size; ewma = Ewma.value monitor;
                   cached = None; dispatch = None };
               (* Dynamic sifting: when the EWMA verdict says convert,
                  try shrinking the DD by reordering levels first — a
                  substantial shrink keeps the run in the cheap DD
                  phase. Bounded attempts; whatever swaps the pass kept
                  are folded into [cur] either way, since the arena's
                  levels really moved. *)
               if !want_convert
                  && cfg.Config.order = Config.Sift_order
                  && cfg.Config.policy = Config.Ewma_policy
                  && !sift_attempts < 2 && size >= 16
               then begin
                 incr sift_attempts;
                 Dd_engine.compact dd;
                 let pkg = Dd_engine.package dd in
                 let perm, before, after =
                   Dd.sift_pass pkg ~root:(Dd_engine.edge dd) ~levels:n
                 in
                 let perm_id = ref true in
                 Array.iteri (fun l p -> if l <> p then perm_id := false) perm;
                 if not !perm_id then
                   cur :=
                     Some
                       (match !cur with
                        | None -> perm
                        | Some m -> Array.map (fun l -> perm.(l)) m);
                 Dd_engine.compact dd;
                 (* Only a real shrink moves the conversion-cost needle;
                    otherwise fall through to the flat array as before. *)
                 if 10 * after <= 7 * before then begin
                   want_convert := false;
                   ignore
                     (Ewma.observe monitor
                        (float_of_int (Dd_engine.size_metric dd)))
                 end
               end;
               if cfg.Config.compact_every > 0 && (!i + 1) mod cfg.Config.compact_every = 0
               then begin
                 acc.bump_mem (Dd_engine.memory_bytes dd);
                 Dd_engine.compact dd
               end;
               incr i
             done)
       in
       Obs.add c_dd_gates !i;
       Dd_engine.observe dd;
       acc.bump_mem (Dd_engine.memory_bytes dd);

       (* ---- Conversion: the explicit DD→flat transition -------------- *)
       let conversion_stats = ref None in
       let flat = ref None in
       let seconds_convert =
         if !want_convert && !i <= gates then begin
           check_cancel ();
           Obs.incr c_conversions;
           let buf_stats, dt =
             Obs.timed s_convert (fun () ->
                 Convert.parallel (Dd_engine.package dd) ~pool ~n (Dd_engine.edge dd))
           in
           let buf, stats = buf_stats in
           conversion_stats := Some stats;
           converted_at := Some (!i - 1);
           flat := Some buf;
           acc.record
             { Engine.index = !i - 1; name = "dd->array"; seconds = dt;
               phase = Engine.Conversion; dd_size = 0; ewma = Ewma.value monitor;
               cached = None; dispatch = None };
           Dd_engine.release dd;
           dt
         end
         else 0.0
       in

       (* ---- Flat phase: DMAV engine with per-gate dispatch ----------- *)
       let fusion_stats = ref None in
       let final = ref None in
       let seconds_dmav =
         match !flat with
         | None -> 0.0
         | Some buf ->
           let fe = ref None in
           let (), dt =
             Obs.timed s_dmav_phase (fun () ->
                 let remaining =
                   Array.to_list (Array.sub c.Circuit.ops !i (gates - !i))
                 in
                 let remaining =
                   match !cur with
                   | None -> remaining
                   | Some m -> List.map (map_op m) remaining
                 in
                 let plan, fstats =
                   Obs.with_span s_flat_plan (fun () ->
                       flat_plan ctx ~n ~first_index:!i remaining)
                 in
                 fusion_stats := fstats;
                 Obs.add c_dmav_gates (List.length plan);
                 (* Precision branch: at [F32] the converted f64 buffer is
                    demoted once — the single rounding hand-off — and the
                    flat phase runs on the f32 engine twin. *)
                 (match cfg.Config.precision with
                  | Config.F64 ->
                    fe := Some (Engine.Packed ((module Dmav_engine), Dmav_engine.of_buf ctx ~n buf))
                  | Config.F32 ->
                    fe :=
                      Some
                        (Engine.Packed
                           ((module Dmav32_engine),
                            Dmav32_engine.of_buf ctx ~n (Storage.demote buf))));
                 match !fe with
                 | None -> ()
                 | Some (Engine.Packed ((module E), eng)) ->
                   List.iter
                     (fun xo ->
                        ignore
                          (step (module E) eng acc ~check_cancel
                             ~ewma:(Ewma.value monitor) xo))
                     plan;
                   acc.bump_mem (E.memory_bytes eng))
           in
           (match !fe with
            | None -> ()
            | Some (Engine.Packed ((module E), eng)) ->
              E.observe eng;
              final := Some (E.extract eng);
              E.finalize eng);
           dt
       in

       let final =
         match !final with
         | Some f -> f
         | None -> Dd_engine.extract dd
       in
       (* Results are always logical-basis: flat buffers are permuted
          here; a final DD state stays physical and carries its order. *)
       let ord = total_order sigma !cur in
       let final, order =
         match final with
         | Engine.Flat_state buf -> (Engine.Flat_state (logicalize ord buf), None)
         | Engine.Dd_state _ as f -> (f, ord)
       in
       { n;
         gates;
         final;
         order;
         converted_at = !converted_at;
         seconds_total = seconds_dd +. seconds_convert +. seconds_dmav;
         seconds_dd;
         seconds_convert;
         seconds_dmav;
         conversion_stats = !conversion_stats;
         trace = List.rev !(acc.trace);
         peak_memory_bytes = !(acc.peak_mem);
         dmav_gates_cached = !(acc.cached_gates);
         dmav_gates_uncached = !(acc.uncached_gates);
         dmav_cache_hits = !(acc.cache_hits);
         modeled_macs = !(acc.modeled);
         fusion_stats = !fusion_stats })

(* Run a whole circuit on ONE engine, no conversion — the pure-DD,
   pure-DMAV and pure-dense reference paths, all through the same timed,
   traced, cancellable gate loop. *)
let run_engine (type s) ?cancel ?pool ?package ?workspace
    (module E : Engine.ENGINE with type state = s) (cfg : Config.t) (c : Circuit.t) =
  let n = c.Circuit.n in
  let gates = Circuit.num_gates c in
  let check_cancel = make_check_cancel cancel in
  let own_pool = pool = None in
  let pool = match pool with Some p -> p | None -> Pool.create (Int.max 1 cfg.Config.threads) in
  Fun.protect
    ~finally:(fun () ->
        if own_pool then Pool.shutdown pool;
        if Check.enabled () then Check.observe ())
    (fun () ->
       Obs.incr c_runs;
       Obs.add c_gates gates;
       (* Static order only: the single-engine paths have no conversion
          decision, hence no sifting trigger. *)
       let c, sigma = prepare_order cfg c in
       let ctx = make_ctx ?package ?workspace cfg ~pool ~n in
       let monitor = Ewma.create ~beta:cfg.Config.beta ~epsilon:cfg.Config.epsilon in
       ignore (Ewma.observe monitor (float_of_int n));
       let acc = make_acc cfg in
       let span =
         match E.trace_phase with Engine.Dd_phase -> s_dd_phase | _ -> s_dmav_phase
       in
       let st = E.init ctx ~n in
       let (), seconds =
         Obs.timed span (fun () ->
             Array.iteri
               (fun i op ->
                  let xo = Engine.exec_of_op i op in
                  ignore (step (module E) st acc ~check_cancel ~ewma:(Ewma.value monitor) xo);
                  (match E.trace_phase with
                   | Engine.Dd_phase ->
                     ignore (Ewma.observe monitor (float_of_int (E.size_metric st)))
                   | _ -> ());
                  if cfg.Config.compact_every > 0 && (i + 1) mod cfg.Config.compact_every = 0
                  then begin
                    acc.bump_mem (E.memory_bytes st);
                    E.compact st
                  end)
               c.Circuit.ops)
       in
       (match E.trace_phase with
        | Engine.Dd_phase -> Obs.add c_dd_gates gates
        | _ -> Obs.add c_dmav_gates gates);
       E.observe st;
       acc.bump_mem (E.memory_bytes st);
       let final = E.extract st in
       E.finalize st;
       let dd_phase = E.trace_phase = Engine.Dd_phase in
       let final, order =
         match final with
         | Engine.Flat_state buf -> (Engine.Flat_state (logicalize sigma buf), None)
         | Engine.Dd_state _ as f -> (f, sigma)
       in
       { n;
         gates;
         final;
         order;
         converted_at = None;
         seconds_total = seconds;
         seconds_dd = (if dd_phase then seconds else 0.0);
         seconds_convert = 0.0;
         seconds_dmav = (if dd_phase then 0.0 else seconds);
         conversion_stats = None;
         trace = List.rev !(acc.trace);
         peak_memory_bytes = !(acc.peak_mem);
         dmav_gates_cached = !(acc.cached_gates);
         dmav_gates_uncached = !(acc.uncached_gates);
         dmav_cache_hits = !(acc.cache_hits);
         modeled_macs = !(acc.modeled);
         fusion_stats = None })

let amplitudes r =
  match r.final with
  | Engine.Flat_state buf -> buf
  | Engine.Dd_state { package; edge } ->
    logicalize r.order (Convert.sequential package ~n:r.n edge)

let amplitude r i =
  match r.final with
  | Engine.Flat_state buf -> Buf.get buf i
  | Engine.Dd_state { package; edge } ->
    let j = match r.order with None -> i | Some ord -> phys_index ord i in
    Dd.vamplitude package edge j
