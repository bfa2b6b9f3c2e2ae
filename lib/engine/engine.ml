(** The stepwise engine abstraction.

    An {!ENGINE} is one way of holding a quantum state and advancing it by
    one gate: DD simulation ([Dd_engine]), flat-array DMAV with per-gate
    kernel dispatch ([Dmav_engine]), or dense direct application
    ([Dense_engine]). Everything cross-cutting — the conversion policy,
    cooperative cancellation, trace records, peak-memory tracking, phase
    spans — lives in {!Driver}, which steps an engine gate by gate and owns
    the transitions between engines. An engine only knows how to apply one
    {!exec_op} and report what it did. *)

type phase = Dd_phase | Conversion | Dmav_phase

(** Which kernel executed a flat-phase gate. *)
type dispatch = Dmav_cached | Dmav_uncached | Dense_direct

(** One entry of the per-gate trace. *)
type gate_record = {
  index : int;            (** index into the (possibly fused) gate stream *)
  name : string;
  seconds : float;
  phase : phase;
  dd_size : int;          (** state DD nodes (DD phase only; 0 after) *)
  ewma : float;           (** monitor value when this gate finished *)
  cached : bool option;   (** DMAV kernel choice, when applicable *)
  dispatch : dispatch option;  (** flat-phase kernel dispatch, when applicable *)
}

type final_state =
  | Dd_state of { package : Dd.package; edge : Dd.vedge }
  | Flat_state of Buf.t

(** What one [apply_op] call did, for the driver's accounting. Engines
    fill only the fields that apply to them (a DD step has no kernel
    choice, a dense step no cache hits). *)
type gate_stats = {
  gs_cached : bool option;
  gs_dispatch : dispatch option;
  gs_cache_hits : int;
  gs_buffers_used : int;
  gs_modeled_macs : float;
}

let no_stats =
  { gs_cached = None;
    gs_dispatch = None;
    gs_cache_hits = 0;
    gs_buffers_used = 0;
    gs_modeled_macs = 0.0 }

(** One item of the executable gate stream. The driver builds these: in
    the DD phase straight from circuit ops; in the flat phase from the
    (possibly fused) matrix list, keeping the original op when the gate
    survived fusion so the dense kernel stays eligible, plus the driver's
    dispatch choice for the gate. *)
type exec_op = {
  xo_index : int;                     (** trace index *)
  xo_name : string;
  xo_op : Circuit.op option;          (** original circuit op, if unfused *)
  xo_mat : Dd.medge option;           (** prebuilt matrix DD, if any *)
  xo_dispatch : Cost.dispatch option; (** driver's kernel pick, if any *)
}

let exec_of_op i (op : Circuit.op) =
  { xo_index = i;
    xo_name = Circuit.op_name op;
    xo_op = Some op;
    xo_mat = None;
    xo_dispatch = None }

(** Everything an engine may need but does not own: the worker pool, the
    run configuration, the DD package (shared across engines so the flat
    phase can build gate matrices in the same unique table the DD phase
    populated), and the scratch-buffer workspace. *)
type ctx = {
  cfg : Config.t;
  pool : Pool.t;
  package : Dd.package;
  workspace : Dmav.workspace;
}

module type ENGINE = sig
  type state

  val trace_phase : phase
  (** Which trace phase this engine's gates report as ([Dd_phase] for DD
      engines, [Dmav_phase] for flat ones). *)

  val init : ctx -> n:int -> state
  (** |0…0⟩ over [n] qubits. *)

  val apply_op : state -> exec_op -> gate_stats
  (** Advance the state by one gate. This is the call the driver times for
      the per-gate trace, so it must do nothing but the application. *)

  val size_metric : state -> int
  (** The quantity the conversion monitor watches — state-DD node count
      for DD engines, 0 for flat ones. Called outside the timed region. *)

  val memory_bytes : state -> int
  (** Modeled bytes currently held (peak-so-far for phase-level buffers). *)

  val compact : state -> unit
  (** Reclaim dead internal storage (DD garbage collection); may be a
      no-op. The driver calls it on the configured interval. *)

  val observe : state -> unit
  (** Push engine gauges into [Obs] (no-op while metrics are disabled). *)

  val extract : state -> final_state
  (** The final state, ownership transferred to the caller. *)

  val finalize : state -> unit
  (** Release everything [extract] did not hand over (e.g. return scratch
      buffers to the workspace). Call after [extract]. *)
end

(** What a flat engine knows about its amplitude precision: the storage
    kind, the f64 hand-offs in (the converted DD state) and out (the
    result type), and where its scratch buffers come from. The flat
    engines are functors over this, instantiated at {!F64} and {!F32}. *)
module type PRECISION = sig
  module P : Storage.S

  val of_f64 : Buf.t -> P.t
  val to_f64 : P.t -> Buf.t
  val workspace : ctx -> n:int -> P.t Dmav_generic.workspace
end

(* f64 borrows the run's workspace, so batched runs and warm handles
   reuse its buffers across jobs. *)
module F64 = struct
  module P = Storage.F64

  let of_f64 b = b
  let to_f64 b = b
  let workspace ctx ~n:_ = ctx.workspace
end

(* f32 rounds once on the way in, widens exactly on the way out, and
   builds a per-run workspace: the ctx one is f64-typed, and a warm
   handle keeps holding f64 buffers only. *)
module F32 = struct
  module P = Storage.F32

  let of_f64 = Storage.demote
  let to_f64 = Storage.promote
  let workspace _ ~n = Dmav_generic.workspace ~n
end

(** An engine packed with its state, the unit the driver steps. *)
type packed = Packed : (module ENGINE with type state = 's) * 's -> packed
