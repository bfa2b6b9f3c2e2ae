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
   are fixed, so applying one reads nothing of the DD package, and the
   driver reads what it ran off the same compiled gate.
   The DD package (and therefore every gate matrix and ctable weight)
   stays f64 at every precision; rounding happens only on stores into
   V/W. The scratch buffer and the cached kernel's partial outputs come
   from the engine's own workspace, which lives as long as the run. *)

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module K = Dmav_generic.Make (P)

  type state = {
    n : int;
    ws : K.workspace;
    mutable v : P.t;
    mutable w : P.t;
    mutable max_buffers : int;
  }

  let trace_phase = Engine.Dmav_phase

  (* Seat the engine on an existing f64 amplitude vector — the driver's
     DD→flat conversion hands its output buffer in here, and [Pr.of_f64]
     is the single rounding hand-off below f64. *)
  let of_buf ~n buf =
    if Buf.length buf <> 1 lsl n then invalid_arg "Dmav_engine.of_buf: wrong length";
    let v = Pr.of_f64 buf in
    let ws = K.workspace ~n in
    { n; ws; v; w = K.take ws; max_buffers = 0 }

  (* The kernel the gate was compiled for (§3.2.3). A Run writes W, which
     becomes the state; the dense kernel and the local leg work in place:
     no swap. *)
  let apply_op st ~pool (xo : Engine.exec_op) =
    match xo.Engine.xo_gate with
    | None -> invalid_arg "Dmav_engine.apply_op: gate without a compiled form"
    | Some g -> (
        K.exec ~workspace:st.ws ~pool g ~v:st.v ~w:st.w;
        match g.Flat_gate.body with
        | Flat_gate.Dmav prog ->
          if prog.Flat_gate.buffers > st.max_buffers then st.max_buffers <- prog.Flat_gate.buffers;
          let tmp = st.v in
          st.v <- st.w;
          st.w <- tmp
        | Flat_gate.Dense _ | Flat_gate.Local _ -> ())

  let size_metric _ = 0

  (* Modeled bytes of the flat phase's own buffers: V, W and the
     partial-output buffers, each counted exactly from the storage kind
     (payload plus bigarray custom block, see [Storage.S.buffer_bytes])
     plus its wrapping record. *)
  let memory_bytes st = (2 + st.max_buffers) * (P.buffer_bytes ~len:(1 lsl st.n) + 24)

  let compact _ = ()
  let extract st = Engine.Flat_state (Pr.to_f64 st.v)
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
