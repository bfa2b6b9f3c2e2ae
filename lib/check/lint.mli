(** The qcs_lint rule framework.

    FlatDD's correctness rests on invariants the type system cannot see:
    edge weights are only compared through the tolerance-bucketed complex
    table, DMAV kernels partition the flat array race-freely across Pool
    domains, and the scheduler's mutexes follow a strict lock/unlock
    discipline. This module is the substrate for a project-specific
    static analyzer over the repo's own sources: each {!rule} walks a
    file's [Parsetree] (via [Ast_iterator]) and/or its raw text and emits
    {!finding}s; the runner applies inline suppression comments and the
    [lint.allow] file allowlist, renders human or [qcs_lint/v1] JSON
    output, and decides the exit code.

    The rule catalog itself lives in {!Lint_rules}; the CLI driver in
    [tools/lint]. *)

type severity = Info | Warning | Error

val severity_name : severity -> string

type finding = {
  rule : string;
  severity : severity;
  file : string;  (** path as given on the command line, '/'-separated *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based *)
  message : string;
}

type source = {
  path : string;
  text : string;
  lines : string array;
}

(** Handed to every rule: the file under analysis plus the (suppression-
    and allowlist-filtered) sink for findings. *)
type ctx = { src : source; emit : finding -> unit }

type rule = {
  name : string;
  severity : severity;  (** default severity; findings may override *)
  doc : string;
  ast : (ctx -> Ast_iterator.iterator -> Ast_iterator.iterator) option;
      (** Extend the composed iterator. A rule's wrapper must invoke the
          previous iterator's handler so the chain (and child recursion
          through [self]) keeps running. *)
  text : (ctx -> unit) option;
      (** Raw-text scan, for facts the parser drops (comments). *)
}

val report : ctx -> rule:rule -> ?severity:severity -> loc:Location.t -> string -> unit
(** Emit one finding at [loc] with the rule's default severity unless
    overridden. *)

val load_allow : string -> (string * string) list
(** Parse a [lint.allow] file: one [<rule> <path-prefix>] pair per line,
    blank lines and [#] comments ignored. Rule ["*"] matches every
    rule. *)

val allowed : (string * string) list -> string -> string -> bool
(** [allowed allow rule path]: the allowlist covers [rule] at [path]. *)

val normalize_path : string -> string
(** ['/'-separate] and strip [./] so paths compare stably across
    platforms and invocation styles. *)

val suppressions : string -> (int * string) list
(** The inline [(* qcs-lint: allow ... *)] markers of a source text as
    (line, rule) pairs; rule ["all"] suppresses everything on its
    line. Markers are only honored inside comments. *)

val suppressed : (int * string) list -> finding -> bool
(** A suppression on the finding's line or the line above covers it. *)

val parse : string -> string -> (Parsetree.structure, int * string) result
(** [parse path text]: compiler-libs parse, [Error (line, msg)] on a
    syntax or lexical error. *)

val compare_finding : finding -> finding -> int
(** Total order by (file, line, col, rule) — the canonical emission
    order. *)

val sort_findings : finding list -> finding list

val lint_source :
  rules:rule list -> allow:(string * string) list -> path:string -> string ->
  finding list
(** Lint one file's contents. Findings suppressed by an inline
    [(* qcs-lint: allow <rule> *)] comment (same line or the line above)
    or by an allowlist entry are dropped; a file that fails to parse
    yields a single [parse-error] finding at error severity. Results are
    sorted by line then column. *)

val lint_file :
  rules:rule list -> allow:(string * string) list -> string -> finding list
(** [lint_source] over a file read from disk. *)

val has_errors : finding list -> bool
(** True when any finding is error severity — the non-zero-exit
    condition. *)

val render : finding -> string
(** [file:line:col: severity [rule] message], the human output line. *)

val to_json : files:int -> finding list -> string
(** The [qcs_lint/v1] JSON document: schema tag, file/severity tallies,
    and the finding array. *)

val to_json_v2 : files:int -> extra:(string * int) list -> finding list -> string
(** The [qcs_lint/v2] document emitted by [--program]: like v1 plus the
    whole-program stats in [extra] (functions, call edges, parallel
    roots, parallel-reachable set size, baseline tallies). *)
