(** The stepwise engine abstraction.

    An {!ENGINE} is one way of holding a quantum state and advancing it by
    one gate: DD simulation ([Dd_engine]), flat-array DMAV with per-gate
    kernel dispatch ([Dmav_engine]), or dense direct application
    ([Dense_engine]). Everything cross-cutting — the conversion policy,
    cooperative cancellation, kernel counts and trace records (read off
    each flat gate's compiled form), peak-memory tracking, the DD
    package and its gauges, the pool, phase spans — lives in {!Driver},
    which steps an engine gate by gate and owns the transitions between
    engines. An engine holds its state and applies one {!exec_op} on the
    pool it is given. *)

type phase = Dd_phase | Conversion | Dmav_phase

(** Which kernel executed a flat-phase gate. [Dmav_local] is a narrow
    gate run on its local leg ([Flat_gate.Local]), counted as an
    uncached DMAV pick. *)
type dispatch = Dmav_cached | Dmav_uncached | Dense_direct | Dmav_local

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
    the DD phase straight from circuit ops; in the flat phase from the
    planner's compiled gates, keeping the original op when the gate
    survived fusion (its name, and the dense kernel's eligibility, come
    from it). A flat gate's compiled form is the one record of the
    kernel it runs. *)
type exec_op = {
  xo_index : int;                     (** trace index *)
  xo_name : string;
  xo_op : Circuit.op option;          (** original circuit op, if unfused *)
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
  val to_f64 : P.t -> Buf.t
end

module F64 = struct
  module P = Storage.F64

  let of_f64 b = b
  let to_f64 b = b
end

(* f32 rounds once on the way in and widens exactly on the way out. *)
module F32 = struct
  module P = Storage.F32

  let of_f64 = Storage.demote
  let to_f64 = Storage.promote
end
