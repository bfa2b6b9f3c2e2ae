(* The FLATDD_CHECK ownership checker. All state is either atomic or
   guarded by a per-region mutex, since claims arrive from every Pool
   domain concurrently. Event counters are double-booked: an internal
   atomic total (authoritative, readable with metrics off) and the
   check.* Obs counters (visible in qcs_obs/v1 snapshots when metrics
   are on). *)

type mode = Off | Count | Abort

let parse_env () =
  match Sys.getenv_opt "FLATDD_CHECK" with
  | Some ("1" | "on" | "abort") -> Abort
  | Some "count" -> Count
  | _ -> Off

let mode_cell = Atomic.make (parse_env ())
let set_mode m = Atomic.set mode_cell m
let enabled () = Atomic.get mode_cell <> Off

exception Race of string

let c_races = Obs.counter "check.races"
let c_reentrant = Obs.counter "check.reentrant"
let c_claims = Obs.counter "check.claims"
let g_races_total = Obs.gauge "check.races_total"
let g_reentries_total = Obs.gauge "check.reentries_total"
let g_claims_total = Obs.gauge "check.claims_total"

let races_total = Atomic.make 0
let reentries_total = Atomic.make 0
let claims_total = Atomic.make 0

let races () = Atomic.get races_total
let reentries () = Atomic.get reentries_total
let claims () = Atomic.get claims_total

let reset () =
  Atomic.set races_total 0;
  Atomic.set reentries_total 0;
  Atomic.set claims_total 0

let observe () =
  Obs.set_gauge g_races_total (Atomic.get races_total);
  Obs.set_gauge g_reentries_total (Atomic.get reentries_total);
  Obs.set_gauge g_claims_total (Atomic.get claims_total)

let race msg =
  ignore (Atomic.fetch_and_add races_total 1);
  Obs.incr c_races;
  if Atomic.get mode_cell = Abort then raise (Race msg)

let violation msg = if enabled () then race msg

(* ------------------------------------------------------------------ *)
(* Regions and claims                                                  *)
(* ------------------------------------------------------------------ *)

type region = {
  r_name : string;
  r_mutex : Mutex.t;
  (* (owner, lo, hi), newest first; never released, so sequential
     double-grants of the same index are caught too. Claim counts are
     per-chunk / per-block — tens, not millions — so the linear overlap
     scan is cheap. *)
  mutable r_claims : (int * int * int) list;
}

let region ~name = { r_name = name; r_mutex = Mutex.create (); r_claims = [] }

let claim r ~owner ~lo ~hi =
  if enabled () && hi > lo then begin
    Mutex.lock r.r_mutex;
    let conflict =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock r.r_mutex)
        (fun () ->
           let c =
             List.find_opt (fun (o, l, h) -> o <> owner && lo < h && l < hi) r.r_claims
           in
           r.r_claims <- (owner, lo, hi) :: r.r_claims;
           c)
    in
    ignore (Atomic.fetch_and_add claims_total 1);
    Obs.incr c_claims;
    match conflict with
    | None -> ()
    | Some (o, l, h) ->
      race
        (Printf.sprintf
           "%s: owner %d claims [%d,%d) overlapping owner %d's [%d,%d)" r.r_name
           owner lo hi o l h)
  end

(* ------------------------------------------------------------------ *)
(* Re-entrant pool admission                                           *)
(* ------------------------------------------------------------------ *)

(* Per-domain stack of the pool identities whose jobs this domain is
   currently inside. The same key appearing at admission time means the
   caller is a worker of an in-flight fork-join job on that very pool;
   its admission could only be granted after that job completes, which
   in turn waits on the caller — a guaranteed deadlock. Distinct pools
   nest fine, so only a same-key hit is flagged. *)
let job_keys = Domain.DLS.new_key (fun () -> ref [])

let enter_job ~key =
  let r = Domain.DLS.get job_keys in
  r := key :: !r

let leave_job ~key =
  let r = Domain.DLS.get job_keys in
  match !r with
  | k :: rest when k = key -> r := rest
  | _ -> ()  (* unbalanced bracket: stay harmless rather than assert *)

let guard_admission ~what ~key =
  if enabled () && List.mem key !(Domain.DLS.get job_keys) then begin
    ignore (Atomic.fetch_and_add reentries_total 1);
    Obs.incr c_reentrant;
    if Atomic.get mode_cell = Abort then
      raise
        (Race
           (what
            ^ ": re-entrant admission — this domain is already inside a pool job; \
               completing the admission would deadlock"))
  end
