(** The whole-program concurrency rules behind [qcs_lint --program].

    Runs over a {!Callgraph.t}: computes the cross-module call graph and
    the parallel-reachable set (everything transitively reachable from
    closures handed to Pool/Sched, [Thread.create] and [Domain.spawn]),
    threads a symbolic lock environment through every
    definition ([Mutex.lock/unlock], [Mutex.protect], and the repo's
    [locked t f] combinators), and emits three inter-procedural rules:
    [unguarded-shared-state], [lock-order] and [arena-epoch]. See the
    implementation header and DESIGN.md §10 for the exact approximations. *)

val rules : (string * Lint.severity * string) list
(** (name, default severity, one-line doc) for the catalog. *)

val rule_names : string list

type result = {
  r_findings : (Lint.finding * string) list;
      (** finding plus the enclosing definition name — the baseline symbol *)
  r_stats : (string * int) list;
      (** whole-program stats for the v2 JSON: files, definitions,
          functions, call edges, parallel roots/reachable, lock edges *)
  r_par : string list;  (** the parallel-reachable set, sorted *)
}

val analyze :
  ?allow:(string * string) list -> ?only:string list -> Callgraph.t -> result
(** Run the analysis. [allow] is the lint.allow pair list; [only]
    restricts which program rules may emit (default: all). Inline
    [qcs-lint: allow] suppressions in the analyzed sources are honored.
    Findings are sorted by (file, line, col, rule). *)

(** {2 Baseline ratchet}

    A baseline is a multiset of [<rule> <file> <symbol>] lines. CI runs
    [--program --baseline lint.baseline] and fails only on findings not
    covered by the multiset, so pre-existing debt is frozen and can only
    be ratcheted down. *)

val baseline_key : Lint.finding * string -> string

val load_baseline : string -> string list
(** Baseline lines, comments and blanks stripped; [[]] if the file does
    not exist. *)

val render_baseline : (Lint.finding * string) list -> string

val new_against_baseline :
  baseline:string list ->
  (Lint.finding * string) list ->
  (Lint.finding * string) list
(** Findings whose key count exceeds the baseline's count for that key. *)
