(* Dense direct application as a stepwise engine, written once over the
   amplitude precision: the state is a flat vector and every gate runs
   through the [Dense_kernel] array kernels — the fast array engine
   (`-e array`) and the dense reference, behind the same ENGINE signature
   as the DD and DMAV engines (and the kernels the flat phase's dense
   dispatch borrows). The paper's Quantum++ baseline is [Qpp_kernel].
   [extract] widens to the f64 [Flat_state] the driver's result type
   carries, so downstream consumers never see the storage kind — only its
   rounding. *)

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module DK = Dense_kernel.Make (P)

  type state = {
    n : int;
    amps : P.t;
  }

  let trace_phase = Engine.Dmav_phase

  let init ~n = { n; amps = DK.zero_state n }

  let apply_op st ~pool (xo : Engine.exec_op) =
    match xo.Engine.xo_op with
    | None -> invalid_arg "Dense_engine.apply_op: fused matrices have no dense kernel"
    | Some op -> DK.op ~pool ~n:st.n st.amps op

  let size_metric _ = 0
  let memory_bytes st = P.memory_bytes st.amps
  let compact _ = ()
  let extract st = Engine.Flat_state (Pr.to_f64 st.amps)
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
