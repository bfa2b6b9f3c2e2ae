(* Dense direct application as a stepwise engine, written once over the
   amplitude precision: the state is a flat vector and every gate runs
   through the [Dense_kernel] amplitude-pair kernels — the "Quantum++"
   style baseline behind the same ENGINE signature as the DD and DMAV
   engines (and the kernel the flat phase's dense dispatch borrows).
   [extract] widens to the f64 [Flat_state] the driver's result type
   carries, so downstream consumers never see the storage kind — only its
   rounding. *)

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module DK = Dense_kernel.Make (P)

  type state = {
    ctx : Engine.ctx;
    n : int;
    amps : P.t;
  }

  let trace_phase = Engine.Dmav_phase

  let init (ctx : Engine.ctx) ~n = { ctx; n; amps = DK.zero_state n }

  let apply_op st (xo : Engine.exec_op) =
    match xo.Engine.xo_op with
    | None -> invalid_arg "Dense_engine.apply_op: fused matrices have no dense kernel"
    | Some op ->
      DK.op ~pool:st.ctx.Engine.pool ~n:st.n st.amps op;
      { Engine.no_stats with
        Engine.gs_dispatch = Some Engine.Dense_direct;
        gs_modeled_macs = Cost.dense_direct_macs ~n:st.n op }

  let size_metric _ = 0
  let memory_bytes st = P.memory_bytes st.amps
  let compact _ = ()
  let observe _ = ()
  let extract st = Engine.Flat_state (Pr.to_f64 st.amps)
  let finalize _ = ()
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
