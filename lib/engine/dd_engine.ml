(* DD simulation as a stepwise engine: the state is a vector DD in the
   shared package; a gate is built as a matrix DD and applied with the
   compute-cached DD matrix-vector product. *)

type state = {
  ctx : Engine.ctx;
  n : int;
  mutable edge : Dd.vedge;
}

let trace_phase = Engine.Dd_phase

let init (ctx : Engine.ctx) ~n = { ctx; n; edge = Vec_dd.zero_state ctx.Engine.package n }

let qubits st = st.n
let edge st = st.edge
let package st = st.ctx.Engine.package

let apply_op st (xo : Engine.exec_op) =
  let p = st.ctx.Engine.package in
  let g =
    match xo.Engine.xo_mat with
    | Some m -> m
    | None ->
      (match xo.Engine.xo_op with
       | Some op -> Mat_dd.of_op p ~n:st.n op
       | None -> invalid_arg "Dd_engine.apply_op: op without matrix or circuit op")
  in
  st.edge <- Dd.mv p g st.edge;
  Engine.no_stats

let size_metric st = Dd.vnode_count st.ctx.Engine.package st.edge
let memory_bytes st = Dd.memory_bytes st.ctx.Engine.package
let compact st = Dd.compact st.ctx.Engine.package ~vroots:[ st.edge ] ~mroots:[]
let observe st = Dd.observe_gauges st.ctx.Engine.package

let extract st = Engine.Dd_state { package = st.ctx.Engine.package; edge = st.edge }

let finalize _ = ()

let release st =
  (* The vector DD is dead (converted away); keep only what the matrix
     side of the package reuses. *)
  st.edge <- Dd.vzero;
  Dd.compact st.ctx.Engine.package ~vroots:[] ~mroots:[]
