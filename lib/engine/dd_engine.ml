(* DD simulation as a stepwise engine: the state is a vector DD in the
   run's package; a gate is built as a matrix DD and applied with the
   compute-cached DD matrix-vector product. *)

type state = {
  p : Dd.package;
  n : int;
  mutable edge : Dd.vedge;
}

let trace_phase = Engine.Dd_phase

let init p ~n = { p; n; edge = Vec_dd.zero_state p n }

let edge st = st.edge

let apply_op st ~pool:_ (xo : Engine.exec_op) =
  let g =
    match xo.Engine.xo_op with
    | Some op -> Mat_dd.of_op st.p ~n:st.n op
    | None -> invalid_arg "Dd_engine.apply_op: gate without a circuit op"
  in
  st.edge <- Dd.mv st.p g st.edge

let size_metric st = Dd.vnode_count st.p st.edge
let memory_bytes st = Dd.memory_bytes st.p
let compact st = Dd.compact st.p ~vroots:[ st.edge ] ~mroots:[]

let extract st = Engine.Dd_state { package = st.p; edge = st.edge }

let release st =
  (* The vector DD is dead (converted away); keep only what the matrix
     side of the package reuses. *)
  st.edge <- Dd.vzero;
  Dd.compact st.p ~vroots:[] ~mroots:[]
