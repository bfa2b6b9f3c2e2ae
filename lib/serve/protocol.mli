(** The qcs_serve/v1 wire protocol: JSONL both ways over a Unix socket.

    Requests are qcs_sched/v1 manifest lines (a manifest file is a valid
    request stream) or control objects with an ["op"] field; responses are
    frames tagged by ["frame"]. Result frames embed the byte-exact
    qcs_sched/v1 result line as an escaped string so a remote client can
    reconstruct exactly what a local [flatdd_batch] run would have
    written. *)

exception Error of string

val schema : string
(** ["qcs_serve/v1"]. *)

val render_obj : (string * Obs.Metrics.jv) list -> string
(** One-line rendering of a flat/nested JSON object; [Jnum] values keep
    their source digits, so re-rendering never perturbs numbers. *)

val set_field :
  (string * Obs.Metrics.jv) list -> string -> Obs.Metrics.jv ->
  (string * Obs.Metrics.jv) list
(** Replace-or-append preserving key order (used to pin "id"/"seed" into
    a manifest line before journaling or shipping it). *)

val one_line : string -> string
(** Strips newlines (turns the pretty qcs_obs JSON into a JSONL-safe
    payload). *)

type frame =
  | Hello of { server : string }
  | Accepted of { id : string; seed : int; replay : bool }
      (** [replay]: the job had already completed in a previous daemon
          life; its stored result follows immediately. *)
  | Rejected of { id : string option; reason : string }
  | Result of { id : string; line : string }
  | Metrics of { body : string }  (** compact qcs_obs/v1 snapshot JSON *)
  | Pong
  | Bye of { results : int }

val render_frame : frame -> string
(** One line, no trailing newline. *)

val parse_frame : string -> frame
(** @raise Error on malformed frames. *)

type request =
  | Hello_req of { timings : bool; metrics : bool; tenant : string option }
      (** Per-connection options: [timings] selects timing fields in
          result lines (off = byte-deterministic), [metrics] streams a
          delta metrics frame after every result, [tenant] is the default
          tenant for job lines that carry none. *)
  | Job of string
  | Metrics_req
  | Ping
  | End_req

val render_request : request -> string

val parse_request : string -> request
(** Control objects (with ["op"]) are parsed strictly; anything else —
    including unparseable text — is returned as {!Job} verbatim so the
    manifest parser owns its error messages.
    @raise Error on a malformed control object. *)
