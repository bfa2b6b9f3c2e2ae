(** The stepwise engine abstraction.

    An {!ENGINE} is one way of holding a quantum state and advancing it by
    one gate: DD simulation ([Dd_engine]), the flat-array phase's
    compiled gates ([Dmav_engine]), or dense direct application
    ([Dense_engine]). Everything cross-cutting — the conversion policy,
    cooperative cancellation, kernel counts and trace records (read off
    each flat gate's compiled form), peak-memory tracking, the DD
    package and its gauges, the pool, phase spans — lives in {!Driver},
    which steps an engine gate by gate and owns the transitions between
    engines. An engine holds its state and applies one {!exec_op} on the
    pool it is given. *)

type phase = Dd_phase | Conversion | Dmav_phase

(** Which kernel executed a flat-phase gate: the compiled gate's
    [Cost.kernel]. [Dmav_local] is a gate run on its local leg
    ([Flat_gate.Local]), counted as an uncached DMAV pick;
    [Dense_direct] is a dense engine's gate. *)
type dispatch = Cost.kernel = Dmav_local | Dmav_uncached | Dmav_cached | Dense_direct

(** One entry of the per-gate trace. *)
type gate_record = {
  index : int;            (** index into the (possibly fused) gate stream *)
  name : string;
  seconds : float;
  phase : phase;
  dd_size : int;          (** state DD nodes (DD phase only; 0 after) *)
  ewma : float;           (** monitor value when this gate finished *)
  dispatch : dispatch option;  (** flat-phase kernel, when applicable *)
  price : float option;
  (** flat phase: the modeled price of the kernel that ran
      ([Cost.dispatch]'s [price], per thread, in the Run's priced MACs),
      to set against [seconds] *)
  support : int option;
  (** flat phase: a narrow gate's levels (one or two); [None] for a
      wide one *)
}

type final_state =
  | Dd_state of { package : Dd.package; edge : Dd.vedge }
  | Flat_state of Buf.t

(** One item of the executable gate stream. The driver builds these: in
    the DD phase and on the dense engines straight from circuit ops; in
    the flat phase from the planner's compiled gates, named after the op
    when the gate survived fusion. A flat gate's compiled form is the
    one record of the kernel it runs. *)
type exec_op = {
  xo_index : int;                     (** trace index *)
  xo_name : string;
  xo_op : Circuit.op option;          (** the circuit op, for the DD and dense engines *)
  xo_gate : Flat_gate.t option;       (** the compiled flat gate, if planned *)
}

let exec_of_op i (op : Circuit.op) =
  { xo_index = i; xo_name = Circuit.op_name op; xo_op = Some op; xo_gate = None }

(** What a run shares across its phases and engines: the worker pool,
    the run configuration and the DD package (the DD engine's state, and
    the unique table the flat phase's planner builds gate matrices in).
    The driver owns all three. *)
type ctx = {
  cfg : Config.t;
  pool : Pool.t;
  package : Dd.package;
}

module type ENGINE = sig
  type state

  val trace_phase : phase
  (** Which trace phase this engine's gates report as ([Dd_phase] for DD
      engines, [Dmav_phase] for flat ones). *)

  val apply_op : state -> pool:Pool.t -> exec_op -> unit
  (** Advance the state by one gate, its kernels running on [pool]. This
      is the call the driver times for the per-gate trace, so it must do
      nothing but the application. *)

  val size_metric : state -> int
  (** The quantity the conversion monitor watches — state-DD node count
      for DD engines, 0 for flat ones. Called outside the timed region. *)

  val memory_bytes : state -> int
  (** Modeled bytes the engine holds itself (peak-so-far for phase-level
      buffers); the flat engine's gate matrices live in the package, which
      the driver counts. *)

  val compact : state -> unit
  (** Reclaim dead internal storage (DD garbage collection); may be a
      no-op. The driver calls it on the configured interval. *)

  val extract : state -> final_state
  (** The final state, ownership transferred to the caller. *)
end

(** A flat engine: an {!ENGINE} that also applies a run of local gates
    (DESIGN.md §9) in one fork-join job. *)
module type FLAT = sig
  include ENGINE

  val split_bits : pool:Pool.t -> n:int -> int -> int
  (** The split bits of a run on [pool] whose first gate acts on the
      levels of the given support ([Dense_kernel.split_bits] for the
      engine's amplitudes). *)

  val apply_run :
    state -> pool:Pool.t -> split:int -> count:int -> gate:(int -> Flat_gate.t) ->
    before:(int -> unit) -> after:(int -> float -> unit) -> unit
  (** Gates [0, count) of [gate], all on the local leg with supports off
      the split bits [split] ({!split_bits}), the domains of
      [pool] applying every gate to each part they take. [before k] runs
      ahead of gate [k] and [after k seconds] once the caller's parts are
      done, both on the caller, with the caller's time on its parts; a
      raise in either stops every domain at its next gate and is
      re-raised. *)
end

(** An engine that starts from |0…0⟩ on its own, so {!Driver.run_engine}
    can run a whole circuit on it: the dense engines. *)
module type STANDALONE = sig
  include ENGINE

  val init : n:int -> state
  (** |0…0⟩ over [n] qubits. *)
end

(** What a flat engine knows about its amplitude precision: the storage
    kind and the f64 hand-offs in (the converted DD state) and out (the
    result type). The flat engines are functors over this, instantiated
    at {!F64} and {!F32}. *)
module type PRECISION = sig
  module P : Storage.S

  val of_f64 : Buf.t -> P.t
  (** The converted state at this precision: the buffer itself, or a
      rounded copy. *)

  val staging : Buf.t -> Buf.t option
  (** What a flat engine keeps of the converted buffer beside its state,
      to widen its result into: nothing where the state is the buffer. *)

  val to_f64 : ?into:Buf.t -> P.t -> Buf.t
  (** The result at f64: the state itself ([into] unused), or widened
      into [into] when given, else into a fresh buffer. *)
end

module F64 = struct
  module P = Storage.F64

  let of_f64 b = b
  let staging _ = None
  let to_f64 ?into:_ b = b
end

(* f32 rounds once on the way in and widens exactly on the way out, into
   the converted buffer it kept. *)
module F32 = struct
  module P = Storage.F32

  let of_f64 = Storage.demote
  let staging b = Some b
  let to_f64 = Storage.promote
end
