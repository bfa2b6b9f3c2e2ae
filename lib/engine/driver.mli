(** The stepwise run driver.

    [run] is the FlatDD hybrid algorithm: it steps {!Dd_engine} gate by
    gate under the conversion policy, owns the one DD→flat transition, and
    then steps {!Dmav_engine} over the (possibly fused) remainder. Its
    policies give the single-engine runs too: [Never_convert] is DD alone,
    [Convert_at (-1)] DMAV alone. [run_engine] drives a dense engine over
    a whole circuit. Both go through one step (the only caller of an
    engine's [apply_op]) and one gate loop, so every gate is timed and
    traced the same way.

    Everything cross-cutting lives here: cancellation polling, trace
    records, peak-memory tracking (the DD package's bytes included), the
    EWMA monitor, the per-phase [Obs] spans and the [dmav.dispatch.*]
    counters. Engines only apply gates, on the pool the driver passes;
    the planner picks each flat gate's kernel when it compiles the gate,
    and the driver reads what ran off that compiled form. *)

exception Cancelled
(** Raised when the [cancel] poll returns [true]. *)

type result = {
  n : int;
  gates : int;
  final : Engine.final_state;
  converted_at : int option;  (** gate index after which conversion ran *)
  seconds_total : float;
  seconds_dd : float;
  seconds_convert : float;
  seconds_dmav : float;
  conversion_stats : Convert.stats option;
  trace : Engine.gate_record list;  (** empty unless [config.trace] *)
  peak_memory_bytes : int;
  dmav_gates_cached : int;
  dmav_gates_uncached : int;
  dmav_gates_local : int;
      (** the uncached gates that ran on the local leg (counted in
          [dmav_gates_uncached] too) *)
  dmav_cache_hits : int;
  modeled_macs : float;       (** Σ modeled MAC work over the flat phase *)
  fusion_stats : Fusion.stats option;
  order : Order.t option;
      (** Physical qubit order of [final] when it is a [Dd_state]:
          logical qubit [q] lives at DD level [Order.apply order q]. Flat buffers
          are always permuted back to the logical basis before the
          result is built, so this is [None] for every [Flat_state] and
          whenever the order is the identity. Use {!amplitudes} /
          {!amplitude} and never index a DD state manually when an
          order is set. *)
}

val run :
  ?cancel:(unit -> bool) ->
  ?pool:Pool.t ->
  ?package:Dd.package ->
  Config.t ->
  Circuit.t ->
  result
(** The hybrid DD→flat run from |0…0⟩. With [Config.dense_dispatch] on,
    the flat phase may run unfused gates on the dense kernel. When [pool]
    is omitted a pool of [config.threads] workers is created for the
    call; a supplied pool overrides [config.threads] and is left
    running. [cancel] is polled at
    every gate boundary and before the conversion; the first poll
    returning [true] aborts the run with {!Cancelled}. With
    [policy = Never_convert] and one thread this is the pure-DD (DDSIM)
    baseline; take its peak nodes as the maximum [dd_size] over a traced
    run's records. A supplied [package] replaces the per-run
    [Dd.create]; it must be freshly created for results to be
    bit-identical to a run without one. *)

val run_engine :
  ?pool:Pool.t ->
  (module Engine.STANDALONE with type state = 's) ->
  Config.t ->
  Circuit.t ->
  result
(** Runs the whole circuit on one dense engine ({!Dense_engine} or
    [Dense_engine.F32]) — the [-e array] engine and the dense reference
    path. [converted_at], [conversion_stats] and [fusion_stats] are always
    [None] and the total time lands in [seconds_dmav]. A fused gate has
    no dense kernel, so every gate is a circuit op. *)

val amplitudes : result -> Buf.t
(** Final amplitudes as a flat vector in the {e logical} basis,
    whatever internal qubit order the run used (converts sequentially
    if the run ended in DD form). *)

val amplitude : result -> int -> Cnum.t
(** Single logical-basis amplitude: O(1) on a flat result, an O(n) DD
    walk otherwise — no 2ⁿ materialization. [amplitude r 0] is the p0
    fingerprint source. *)
