(* The flat-array engine of the flat phase, written once over the
   amplitude precision, seated on the converted DD state ([of_buf]). A
   gate is a DD-matrix × array-vector product (paper §3.2), which reads
   the state V and writes a scratch vector W that becomes the state, or,
   for a gate given by its form (built from op matrices: every unfused op
   and the fused products on at most two levels), its local leg, which
   applies the 2×2 or 4×4 matrix in place under the gate's control mask.
   The engine holds only the buffers its gates write: V; W only when the
   phase can run a Run gate, which an unfused phase never does; the
   cached kernel's partial outputs while it has run one; and at f32 the
   converted f64 buffer, which the result is widened into. W is taken at
   seating, not at the first Run gate: a fused phase almost always runs
   one, and a 2ⁿ block taken late landed where it raised the process's
   peak (DESIGN.md §9, "Buffers").
   Every gate arrives compiled by the driver's planner ([Flat_gate]): the
   kernel pick, the task lists and the gate's own copy of its matrix DD
   are fixed, so applying one reads nothing of the DD package, and the
   driver reads what it ran off the same compiled gate.
   The DD package (and therefore every gate matrix and ctable weight)
   stays f64 at every precision; rounding happens only on stores into
   V/W. W and the cached kernel's partial outputs come from the engine's
   own workspace, which lives as long as the run. *)

let c_scratch = Obs.counter "dmav.scratch.taken"

module Make (Pr : Engine.PRECISION) = struct
  module P = Pr.P
  module K = Dmav_generic.Make (P)

  type state = {
    n : int;
    ws : K.workspace;
    mutable v : P.t;
    mutable w : P.t option;
    staging : Buf.t option;
    mutable max_buffers : int;
  }

  let trace_phase = Engine.Dmav_phase

  let take_scratch st =
    match st.w with
    | Some w -> w
    | None ->
      Obs.incr c_scratch;
      let w = K.take st.ws in
      st.w <- Some w;
      w

  (* Seat the engine on an existing f64 amplitude vector — the driver's
     DD→flat conversion hands its output buffer in here, and [Pr.of_f64]
     is the single rounding hand-off below f64. With [scratch] (a phase
     that can run a Run gate) W is taken now; without it a Run gate
     takes it. *)
  let of_buf ~n ~scratch buf =
    if Buf.length buf <> 1 lsl n then invalid_arg "Dmav_engine.of_buf: wrong length";
    let st =
      { n; ws = K.workspace ~n; v = Pr.of_f64 buf; w = None; staging = Pr.staging buf;
        max_buffers = 0 }
    in
    if scratch then ignore (take_scratch st);
    st

  (* The kernel the gate was compiled for (§3.2.3). A Run writes W, which
     becomes the state; the local leg works in place: no swap. *)
  let apply_op st ~pool (xo : Engine.exec_op) =
    match xo.Engine.xo_gate with
    | None -> invalid_arg "Dmav_engine.apply_op: gate without a compiled form"
    | Some g -> (
        K.exec ~workspace:st.ws ~pool g ~v:st.v ~w:(fun () -> take_scratch st);
        match g.Flat_gate.body with
        | Flat_gate.Dmav prog ->
          if prog.Flat_gate.buffers > st.max_buffers then st.max_buffers <- prog.Flat_gate.buffers;
          let w = take_scratch st in
          st.w <- Some st.v;
          st.v <- w
        | Flat_gate.Local _ -> ())

  let split_bits = K.split_bits

  (* A run of local gates works in place, as one local gate does. *)
  let apply_run st ~pool ~split ~count ~gate ~before ~after =
    K.local_run ~pool ~split st.v ~count ~gate ~before ~after

  let size_metric _ = 0

  (* Modeled bytes of the buffers the flat phase holds: V, W once taken,
     the partial-output buffers and the f64 staging buffer, each counted
     exactly from its storage kind (payload plus bigarray custom block,
     see [Storage.S.buffer_bytes]) plus its wrapping record. *)
  let memory_bytes st =
    let len = 1 lsl st.n in
    let held = 1 + Bool.to_int (Option.is_some st.w) + st.max_buffers in
    (held * (P.buffer_bytes ~len + 24))
    + if Option.is_some st.staging then Buf.buffer_bytes ~len + 24 else 0

  let compact _ = ()
  let extract st = Engine.Flat_state (Pr.to_f64 ?into:st.staging st.v)
end

include Make (Engine.F64)
module F32 = Make (Engine.F32)
