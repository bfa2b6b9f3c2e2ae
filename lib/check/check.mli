(** FLATDD_CHECK: a sanitizer-style runtime ownership checker for the
    flat-array kernels — a poor man's TSan for the DMAV workspace.

    The DMAV kernels are race-free by construction: [Pool.parallel_for]
    hands out disjoint index chunks through an atomic cursor, and the
    cached kernel's buffer allocation ({!Cost.allocate_buffers}) gives
    block-sharing threads distinct partial-output buffers. Those are
    invariants of the *scheduling math*, invisible to the type system.
    In check mode every chunk/block a domain is about to write is
    registered as a claim on a {!region}; a claim overlapping another
    domain's claim is a race. The pool additionally refuses re-entrant
    admission (a worker calling [Pool.run] on its own pool would
    deadlock on the admission mutex).

    Modes, from the [FLATDD_CHECK] environment variable:
    - unset / [0]: off — the only cost anywhere is one flag load;
    - [1] / [on] / [abort]: violations raise {!Race} at the claim site;
    - [count]: violations only bump the counters, for sweeps that want
      to finish and report.

    Every event feeds both an internal total (readable via {!races} even
    with metrics off) and the [check.*] Obs counters, so a differential
    sweep under [FLATDD_CHECK=1 --metrics-json] shows [check.races] in
    its snapshot. The wall-clock overhead is per chunk / per block
    assignment — never per amplitude — and stays well under the 2×
    budget. *)

type mode = Off | Count | Abort

val mode : unit -> mode
val set_mode : mode -> unit
(** Tests override the environment-derived mode; remember to restore. *)

val enabled : unit -> bool
(** [mode () <> Off]. The one check hot paths perform. *)

exception Race of string
(** Raised at the violation site in [Abort] mode: an overlapping
    cross-domain claim, a re-entrant pool admission, or a workspace
    buffer returned twice. *)

(** {2 Write-ownership regions} *)

type region
(** One tracked index space (a flat buffer, or a [parallel_for]
    iteration space). Claims accumulate for the region's lifetime, so
    the same index handed to two domains is caught even when the grants
    do not overlap in time. *)

val region : name:string -> region

val claim : region -> owner:int -> lo:int -> hi:int -> unit
(** [claim r ~owner ~lo ~hi] records that [owner] (a domain id or a
    DMAV thread index) will write [\[lo, hi)]. Overlap with a different
    owner's claim is a race. No-op when the checker is off or the range
    is empty. *)

val violation : string -> unit
(** Record a non-range invariant violation (e.g. a double-returned
    workspace buffer): bumps the race total and raises in [Abort]
    mode. *)

(** {2 Re-entrant pool admission} *)

val enter_job : key:int -> unit
val leave_job : key:int -> unit
(** Bracket a pool worker's share of a fork-join job (caller's share
    included); maintained per domain as a stack of pool identities.
    [key] identifies the pool, so nesting two {e distinct} pools — a
    legitimate pattern — is not flagged. *)

val guard_admission : what:string -> key:int -> unit
(** Called on the admission path: if the current domain is already
    inside a job of the {e same} pool ([key]), this admission can never
    be granted — record it (and raise in [Abort] mode) instead of
    deadlocking. *)

(** {2 Totals} *)

val races : unit -> int
(** Races + violations recorded since the last {!reset}, independent of
    whether Obs metrics were enabled at event time. *)

val reentries : unit -> int
val claims : unit -> int
val reset : unit -> unit

val observe : unit -> unit
(** Push the internal totals into the [check.races_total],
    [check.reentries_total] and [check.claims_total] gauges (no-op while
    metrics are disabled). The driver calls this at the end of every
    run. *)
