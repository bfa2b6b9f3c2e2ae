(** Pure decision-diagram simulation — the DDSIM-style baseline engine.

    Every gate is built as a matrix DD and applied to the state DD with
    {!Dd.mv}. The engine periodically compacts the package (mark-sweep
    from the live state) so memory tracks the true DD size, and it can
    record the per-gate trace (time and DD size) the paper's Figures 3
    and 11 are drawn from. *)

type trace_entry = {
  gate_index : int;
  gate_name : string;
  seconds : float;
  dd_size : int;       (** state-vector DD nodes after this gate *)
}

type result = {
  state : Dd.vedge;
  package : Dd.package;
  trace : trace_entry list;      (** empty unless [trace] was requested *)
  peak_nodes : int;
  peak_memory_bytes : int;
  timed_out : bool;              (** stopped at [time_limit] before finishing *)
  gates_done : int;
  seconds : float;               (** wall-clock of the whole run *)
}

val run :
  ?package:Dd.package ->
  ?trace:bool ->
  ?compact_every:int ->
  ?time_limit:float ->
  Circuit.t ->
  result
(** Simulates from |0…0⟩. [compact_every] (default 64) is how many gates
    elapse between package compactions; 0 disables compaction.
    [time_limit] (seconds) reproduces the paper's bounded runs: the engine
    stops after the first gate that exceeds the budget and flags
    [timed_out] — the scaled-down analogue of the paper's "> 24 h"
    entries. *)

val final_amplitudes : result -> int -> Buf.t
(** Flat amplitudes of the final state ([n] = qubit count), via the
    sequential conversion. *)
