(* The flat-array engine of the flat phase, written once over the
   amplitude precision: the state is a pair of 2ⁿ buffers (current [v],
   scratch [w]), seated on the converted DD state ([of_buf]), and a gate
   is a DD-matrix × array-vector product (paper §3.2), or — when
   [Config.dense_dispatch] is on and the cost model picks it — a dense
   in-place kernel on [v] that skips the ping-pong entirely. A narrow
   gate (its matrix acts on at most two levels, built from op matrices)
   skips it too: its local leg applies the 2×2 or 4×4 matrix in place.
   Every gate arrives compiled by the driver's planner ([Flat_gate]): the
   kernel pick, the task lists and the gate's own copy of its matrix DD
   are fixed, so applying one reads nothing of the DD package.
   The DD package (and therefore every gate matrix and ctable weight)
   stays f64 at every precision; rounding happens only on stores into
   V/W. The scratch buffer and the cached kernel's partial outputs come
   from the engine's own workspace, which lives as long as the run. *)

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module K = Dmav_generic.Make (P)
  module DK = Dense_kernel.Make (P)

  type state = {
    ctx : Engine.ctx;
    n : int;
    ws : K.workspace;
    mutable pool : Pool.t;
    mutable v : P.t;
    mutable w : P.t;
    mutable max_buffers : int;
    mutable package_bytes : int;
  }

  let trace_phase = Engine.Dmav_phase

  (* Seat the engine on an existing f64 amplitude vector — the driver's
     DD→flat conversion hands its output buffer in here, and [Pr.of_f64]
     is the single rounding hand-off below f64. *)
  let of_buf (ctx : Engine.ctx) ~n buf =
    if Buf.length buf <> 1 lsl n then invalid_arg "Dmav_engine.of_buf: wrong length";
    let v = Pr.of_f64 buf in
    let ws = K.workspace ~n in
    { ctx; n; ws; pool = ctx.Engine.pool; v; w = K.take ws; max_buffers = 0;
      package_bytes = Dd.memory_bytes ctx.Engine.package }

  let set_pool st pool = st.pool <- pool

  (* The kernel the gate was compiled for (§3.2.3): cached vs uncached
     DMAV or, for an unfused gate under dense dispatch, dense direct. A
     narrow gate runs on its local leg, counted as an uncached pick, in
     place like the dense kernel: no W to zero, no swap. *)
  let apply_op st (xo : Engine.exec_op) =
    let g =
      match xo.Engine.xo_gate with
      | Some g -> g
      | None -> invalid_arg "Dmav_engine.apply_op: gate without a compiled form"
    in
    if g.Flat_gate.package_bytes > st.package_bytes then
      st.package_bytes <- g.Flat_gate.package_bytes;
    let disp = g.Flat_gate.dispatch in
    let priced =
      { Engine.no_stats with
        Engine.gs_modeled_macs = Cost.dispatch_modeled_macs disp;
        gs_price = Some disp.Cost.price;
        gs_support = Option.map Bits.popcount disp.Cost.support }
    in
    match g.Flat_gate.body with
    | Flat_gate.Dense op ->
      DK.op ~pool:st.pool ~n:st.n st.v op;
      { priced with Engine.gs_dispatch = Some Engine.Dense_direct }
    | Flat_gate.Local _ ->
      K.exec_local ~pool:st.pool g ~v:st.v;
      { priced with Engine.gs_dispatch = Some Engine.Dmav_local }
    | Flat_gate.Dmav _ ->
      let s = K.exec ~workspace:st.ws ~pool:st.pool g ~v:st.v ~w:st.w in
      if s.Dmav_generic.buffers_used > st.max_buffers then
        st.max_buffers <- s.Dmav_generic.buffers_used;
      let tmp = st.v in
      st.v <- st.w;
      st.w <- tmp;
      { priced with
        Engine.gs_dispatch =
          Some (if s.Dmav_generic.used_cache then Engine.Dmav_cached else Engine.Dmav_uncached);
        gs_cache_hits = s.Dmav_generic.cache_hits }

  let size_metric _ = 0

  (* Modeled bytes of the flat phase: V, W and the partial-output buffers,
     each counted exactly from the storage kind (payload plus bigarray
     custom block, see [Storage.S.buffer_bytes]) plus its wrapping record,
     and the DD package that still holds the gate matrices, as of the
     latest gate's compilation (the planner may still be growing it). *)
  let memory_bytes st =
    ((2 + st.max_buffers) * (P.buffer_bytes ~len:(1 lsl st.n) + 24)) + st.package_bytes

  let compact _ = ()
  let observe st = Dd.observe_gauges st.ctx.Engine.package

  let extract st = Engine.Flat_state (Pr.to_f64 st.v)
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
