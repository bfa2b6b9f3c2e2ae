(* The flat-array engine, written once over the amplitude precision: the
   state is a pair of 2ⁿ buffers (current [v], scratch [w]) and a gate is
   a DD-matrix × array-vector product (paper §3.2), or — when the driver's
   dispatch picked it — a dense in-place kernel on [v] that skips the
   ping-pong entirely. The DD package (and therefore every gate matrix and
   ctable weight) stays f64 at every precision; rounding happens only on
   stores into V/W. The scratch buffer and the cached kernel's partial
   outputs come from the precision's workspace and go back to it in
   [finalize]. *)

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module K = Dmav_generic.Make (P)
  module DK = Dense_kernel.Make (P)

  type state = {
    ctx : Engine.ctx;
    n : int;
    ws : K.workspace;
    mutable v : P.t;
    mutable w : P.t;
    mutable max_buffers : int;
    mutable extracted : bool;
  }

  let trace_phase = Engine.Dmav_phase

  let seat ctx ~n ws v = { ctx; n; ws; v; w = K.take ws; max_buffers = 0; extracted = false }

  (* Seat the engine on an existing f64 amplitude vector — the driver's
     DD→flat conversion hands its output buffer in here, and [Pr.of_f64]
     is the single rounding hand-off below f64. *)
  let of_buf (ctx : Engine.ctx) ~n buf =
    if Buf.length buf <> 1 lsl n then invalid_arg "Dmav_engine.of_buf: wrong length";
    seat ctx ~n (Pr.workspace ctx ~n) (Pr.of_f64 buf)

  let init (ctx : Engine.ctx) ~n =
    let ws = Pr.workspace ctx ~n in
    let v = K.take ws in
    P.fill_zero v;
    P.set2 v 0 1.0 0.0;
    seat ctx ~n ws v

  let mat_of st (xo : Engine.exec_op) =
    match xo.Engine.xo_mat with
    | Some m -> m
    | None ->
      (match xo.Engine.xo_op with
       | Some op -> Mat_dd.of_op st.ctx.Engine.package ~n:st.n op
       | None -> invalid_arg "Dmav_engine.apply_op: op without matrix or circuit op")

  let apply_dmav st (xo : Engine.exec_op) decided =
    let m = mat_of st xo in
    let s =
      match decided with
      | Some decision ->
        K.apply_decided ~workspace:st.ws st.ctx.Engine.package ~pool:st.ctx.Engine.pool
          ~n:st.n decision m ~v:st.v ~w:st.w
      | None ->
        K.apply ~workspace:st.ws st.ctx.Engine.package ~pool:st.ctx.Engine.pool
          ~simd_width:st.ctx.Engine.cfg.Config.simd_width ~n:st.n m ~v:st.v ~w:st.w
    in
    if s.Dmav.buffers_used > st.max_buffers then st.max_buffers <- s.Dmav.buffers_used;
    let tmp = st.v in
    st.v <- st.w;
    st.w <- tmp;
    { Engine.gs_cached = Some s.Dmav.used_cache;
      gs_dispatch =
        Some (if s.Dmav.used_cache then Engine.Dmav_cached else Engine.Dmav_uncached);
      gs_cache_hits = s.Dmav.cache_hits;
      gs_buffers_used = s.Dmav.buffers_used;
      gs_modeled_macs = Cost.modeled_macs s.Dmav.decision }

  let apply_op st (xo : Engine.exec_op) =
    match xo.Engine.xo_dispatch with
    | Some ({ Cost.kernel = Cost.Dense_kernel; _ } as disp) ->
      let op =
        match xo.Engine.xo_op with
        | Some op -> op
        | None -> invalid_arg "Dmav_engine.apply_op: dense dispatch on a fused gate"
      in
      DK.op ~pool:st.ctx.Engine.pool ~n:st.n st.v op;
      { Engine.no_stats with
        Engine.gs_dispatch = Some Engine.Dense_direct;
        gs_modeled_macs = Cost.dispatch_modeled_macs disp }
    | Some { Cost.dmav; _ } -> apply_dmav st xo (Some dmav)
    | None -> apply_dmav st xo None

  let size_metric _ = 0

  (* Modeled bytes of the flat phase: V, W and the partial-output buffers,
     each counted exactly from the storage kind (payload plus bigarray
     custom block, see [Storage.S.buffer_bytes]) plus its wrapping record,
     and the DD package that still holds the gate matrices. *)
  let memory_bytes st =
    ((2 + st.max_buffers) * (P.buffer_bytes ~len:(1 lsl st.n) + 24))
    + Dd.memory_bytes st.ctx.Engine.package

  let compact _ = ()
  let observe st = Dd.observe_gauges st.ctx.Engine.package

  let extract st =
    st.extracted <- true;
    Engine.Flat_state (Pr.to_f64 st.v)

  let finalize st =
    K.give st.ws st.w;
    if not st.extracted then K.give st.ws st.v
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
