(** JSONL job manifests and result streams for the batch CLI.

    A manifest is one JSON object per line; each line resolves to one
    {!Sched.job}:

    {v
    {"id":"qft-20","circuit":"qft","n":14,"priority":1,"deadline_s":2.0}
    {"circuit":"supremacy","n":12,"gates":300,"seed":7,"max_retries":1}
    {"qasm":"circuits/bell.qasm","epsilon":1.5,"fusion":"dmav"}
    v}

    Recognized fields (all optional unless noted): [id] (default
    [job-<line>]), [circuit] — a {!Suite} family name — or [qasm] — a
    path, relative to the manifest file ({e exactly one of the two});
    [n] (required with [circuit]), [gates], [seed], [priority],
    [deadline_s], [max_retries], and the config overrides [beta],
    [epsilon], [compact_every], [fusion] (["none"] | ["dmav"] | k) and
    [policy] (["ewma"] | ["never"] | k for convert-at-gate-k).

    Jobs without an explicit [seed] get the splitmix-derived
    [Rng.derive base_seed line_index], so one base seed reproduces the
    whole batch byte-for-byte. *)

exception Error of string
(** Parse or resolution failure; the message names the line. *)

type resolved = { job : Sched.job; seed : int; explicit_seed : bool }
(** A manifest line after circuit generation; [seed] is echoed into the
    result stream ([explicit_seed] says whether the line carried it or it
    was derived from the base seed and line index — the serve client
    pins derived seeds before shipping lines to a daemon). *)

val parse_line :
  ?default_config:Config.t ->
  ?base_seed:int ->
  ?dir:string ->
  ?strict:bool ->
  index:int ->
  string ->
  resolved
(** [parse_line ~index line] resolves the [index]-th (0-based) manifest
    line. [dir] anchors relative [qasm] paths (default ["."]).

    Version strictness: an optional per-line ["schema"] field must be
    ["qcs_sched/v1"] — any other [qcs_sched/vN] raises a line-numbered
    {!Error} instead of silently defaulting the fields that version might
    redefine. Unknown top-level fields are rejected when [strict] (the
    default); [~strict:false] skips them, for a daemon fed by newer
    clients.
    @raise Error on malformed input. *)

val load :
  ?default_config:Config.t -> ?base_seed:int -> ?strict:bool -> string -> (resolved * string) list
(** Reads a whole manifest file, each job with the trimmed line it was
    parsed from; blank lines and [#]-prefixed comment lines are skipped
    (indices still count physical lines).
    @raise Error on malformed input, [Sys_error] on IO failure. *)

val result_line : ?timings:bool -> seed:int -> Sched.job_result -> string
(** One result-stream line (schema [qcs_sched/v1], no trailing newline):
    outcome, identity, [attempts]/[downgraded], [converted_at] and the
    deterministic fingerprint [p0] = |⟨0…0|ψ⟩|² for completed jobs, the
    error text for failed ones, and — unless [~timings:false] — the
    [*_s] timing fields ([queue_wait_s], [run_s], [dd_s], [convert_s],
    [dmav_s]). With [~timings:false] the line is byte-deterministic for
    a fixed manifest. *)

val result_lines : ?timings:bool -> (resolved * Sched.job_result) list -> string
(** The whole result stream, one line per pair, trailing newline. *)
