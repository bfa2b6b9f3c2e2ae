(** The qcs_lint rule catalog — FlatDD's real hazards, one rule each.
    See DESIGN.md §10 for the rationale behind every rule and the
    allowlist/suppression story. *)

val all : Lint.rule list
(** Every rule, in catalog order: [float-eq], [obj-magic],
    [unsafe-array], [catchall-exn], [mutex-discipline],
    [naked-hashtbl-in-parallel], [printf-in-lib], [node-alloc-outside-arena],
    [boxed-cnum-in-hot-loop], [hot-external-alloc], [todo-marker]. *)

val find : string -> Lint.rule option
(** Look a rule up by name. *)

val program : (string * Lint.severity * string) list
(** The whole-program rules ({!Program}): [unguarded-shared-state],
    [lock-order], [arena-epoch]. Not [Lint.rule]s — they need the
    cross-module model — but cataloged here so [--list-rules] shows one
    unified set. *)
