(** Client side of the serve protocol.

    {!run_manifest} is what [flatdd_batch --connect] uses: it parses the
    manifest {e locally} — fixing each job's id and derived seed by
    physical line index, exactly as a local run would — ships every line
    with ["id"]/["seed"] pinned (and relative ["qasm"] paths
    absolutized), and collects the streamed results. Because identity is
    pinned client-side, the returned lines are byte-identical to a local
    [flatdd_batch] run of the same manifest (timings off), no matter how
    other tenants' jobs interleave in the daemon. *)

exception Error of string

type connection

val connect : ?retry_for:float -> socket_path:string -> unit -> connection
(** Connects and waits for the daemon's hello greeting (which {!connect}
    consumes — the first {!read_frame} sees the frame after it).
    [retry_for] keeps retrying [ECONNREFUSED]/[ENOENT] — and a
    connection reset or closed before the greeting, which is what a
    connect racing a daemon restart observes — for that many seconds
    (50 ms backoff). Default [0.0]: fail immediately. *)

val send_request : connection -> Protocol.request -> unit
val read_frame : connection -> Protocol.frame
(** @raise Error on EOF, {!Protocol.Error} on a malformed frame. *)

val close : connection -> unit

val pin_line : dir:string -> ?tenant:string -> Manifest.resolved -> string -> string
(** [pin_line ~dir r raw] bakes [r]'s id, seed, effective [order] and
    [precision] (and [tenant], when given and absent from the line) into the raw
    manifest line and absolutizes a relative qasm path against [dir]
    (prefixing the cwd only when [dir] itself is relative). *)

val load_pinned :
  ?default_config:Config.t ->
  ?base_seed:int ->
  ?strict:bool ->
  ?tenant:string ->
  string ->
  (Manifest.resolved * string) list
(** [Manifest.load], each resolved job with its {!pin_line}d wire line.
    @raise Manifest.Error (line-numbered) on a line that does not parse
    or a duplicate job id. *)

val run_manifest :
  ?default_config:Config.t ->
  ?base_seed:int ->
  ?strict:bool ->
  ?tenant:string ->
  ?timings:bool ->
  ?retry_for:float ->
  socket_path:string ->
  string ->
  (Manifest.resolved * string) list
(** Runs a whole manifest file against the daemon at [socket_path];
    returns result lines in {e manifest} order. [~timings:false] asks
    the daemon for the canonical byte-deterministic lines.
    @raise Error on rejection, missing results, or protocol trouble;
    [Manifest.Error] on local parse failure (line-numbered). *)
