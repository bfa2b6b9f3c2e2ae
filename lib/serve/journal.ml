(* Crash-safe job journal: the daemon's source of truth for which jobs
   were accepted and which finished.

   The on-disk format (schema qcs_serve_journal/v1) is JSONL — a header
   line, then one object per accepted job in accept order:

     {"schema":"qcs_serve_journal/v1","base_seed":1,"next_index":3}
     {"id":"a","tenant":"t0","seed":42,"state":"pending","line":"{...}"}
     {"id":"b","tenant":"t1","seed":7,"state":"done","line":"{...}",
      "result":"{...}"}

   "line" stores the pinned manifest line — explicit "id" and "seed"
   baked in — so a restarted daemon re-parses it with ANY line index and
   gets the same job bit-for-bit. "result" stores the canonical
   (timings-off) result line, replayed verbatim when a client resubmits a
   completed id: exactly-once results over at-least-once submission.

   Every mutation rewrites the whole file through Obs.atomic_write_file
   (temp + rename), so a kill -9 at any instant leaves either the old or
   the new complete journal — never a torn one. An appending format
   would need a recovery-time torn-tail scan for the same guarantee.

   To keep the rewrite from growing O(total jobs ever) in a long-lived
   daemon, each mutation first compacts: every pending entry survives,
   but only the newest [done_tail] completed entries are kept — so a
   rewrite is O(pending + done_tail), a bound the daemon controls, not
   the traffic. The tradeoff is explicit: a client resubmitting an id
   whose done entry aged out of the tail re-runs the job (still
   deterministic — the pinned line carries id and seed) instead of
   replaying stored bytes. Pending entries are never dropped, so the
   crash-recovery guarantee is untouched. *)

exception Error of string

let failf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

let journal_schema = "qcs_serve_journal/v1"

let c_writes = Obs.counter "serve.journal.writes"
let c_restored = Obs.counter "serve.journal.restored"
let c_compactions = Obs.counter "serve.journal.compactions"
let c_dropped = Obs.counter "serve.journal.dropped_done"

type state = Pending | Done of string (* canonical result line *)

type entry = {
  e_id : string;
  e_tenant : string;
  e_seed : int;
  e_line : string; (* pinned manifest line *)
  mutable e_state : state;
}

type t = {
  path : string option; (* None = in-memory only (journaling disabled) *)
  base_seed : int;
  done_tail : int; (* completed entries retained beyond the pending set *)
  mutable next_index : int; (* next fresh derivation index for accepted jobs *)
  mutable entries : entry list; (* reverse accept order *)
  by_id : (string, entry) Hashtbl.t;
}

(* Bound the done set: keep every pending entry plus the newest
   [done_tail] completed ones, forgetting the rest (list and id table).
   [t.entries] is newest-first, so a single filter keeps the right
   tail. Runs before every flush — and also for in-memory journals,
   where it is the only thing bounding the daemon's footprint. *)
let compact t =
  let kept_done = ref 0 and dropped = ref 0 in
  let keep =
    List.filter
      (fun e ->
         match e.e_state with
         | Pending -> true
         | Done _ ->
           if !kept_done < t.done_tail then begin
             incr kept_done;
             true
           end
           else begin
             incr dropped;
             Hashtbl.remove t.by_id e.e_id;
             false
           end)
      t.entries
  in
  if !dropped > 0 then begin
    t.entries <- keep;
    Obs.incr c_compactions;
    Obs.add c_dropped !dropped
  end

(* --- rendering --------------------------------------------------------- *)

let render_entry e =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"id\":\"%s\",\"tenant\":\"%s\",\"seed\":%d"
       (Obs.Metrics.escape e.e_id) (Obs.Metrics.escape e.e_tenant) e.e_seed);
  (match e.e_state with
   | Pending -> Buffer.add_string b ",\"state\":\"pending\""
   | Done _ -> Buffer.add_string b ",\"state\":\"done\"");
  Buffer.add_string b
    (Printf.sprintf ",\"line\":\"%s\"" (Obs.Metrics.escape e.e_line));
  (match e.e_state with
   | Pending -> ()
   | Done r ->
     Buffer.add_string b
       (Printf.sprintf ",\"result\":\"%s\"" (Obs.Metrics.escape r)));
  Buffer.add_char b '}';
  Buffer.contents b

let render t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"%s\",\"base_seed\":%d,\"next_index\":%d}\n"
       journal_schema t.base_seed t.next_index);
  List.iter
    (fun e ->
       Buffer.add_string b (render_entry e);
       Buffer.add_char b '\n')
    (List.rev t.entries);
  Buffer.contents b

let flush t =
  match t.path with
  | None -> ()
  | Some path ->
    Obs.atomic_write_file path (render t);
    Obs.incr c_writes

(* --- loading ----------------------------------------------------------- *)

open Obs.Metrics

let jstr ~where kvs k =
  match List.assoc_opt k kvs with
  | Some (Jstr s) -> s
  | _ -> failf "%s: missing string field %S" where k

let jint ~where kvs k =
  match List.assoc_opt k kvs with
  | Some (Jnum s) ->
    (match int_of_string_opt s with
     | Some v -> v
     | None -> failf "%s: field %S is not an integer" where k)
  | _ -> failf "%s: missing integer field %S" where k

let load_file t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let parse ~where line =
         match parse_json line with
         | Jobj kvs -> kvs
         | _ -> failf "%s: not a JSON object" where
         | exception Parse_error m -> failf "%s: %s" where m
       in
       let header =
         match input_line ic with
         | exception End_of_file -> failf "%s: empty journal" path
         | line -> parse ~where:(path ^ ":1") line
       in
       let where = path ^ ":1" in
       (match jstr ~where header "schema" with
        | s when String.equal s journal_schema -> ()
        | s -> failf "%s: unknown journal schema %S (expected %s)" where s journal_schema);
       if jint ~where header "base_seed" <> t.base_seed then
         failf "%s: journal base_seed %d does not match daemon base_seed %d"
           where (jint ~where header "base_seed") t.base_seed;
       t.next_index <- jint ~where header "next_index";
       let rec go ln =
         match input_line ic with
         | exception End_of_file -> ()
         | line when String.trim line = "" -> go (ln + 1)
         | line ->
           let where = Printf.sprintf "%s:%d" path ln in
           let kvs = parse ~where line in
           let e_state =
             match jstr ~where kvs "state" with
             | "pending" -> Pending
             | "done" -> Done (jstr ~where kvs "result")
             | s -> failf "%s: unknown entry state %S" where s
           in
           let e =
             { e_id = jstr ~where kvs "id";
               e_tenant = jstr ~where kvs "tenant";
               e_seed = jint ~where kvs "seed";
               e_line = jstr ~where kvs "line";
               e_state }
           in
           if Hashtbl.mem t.by_id e.e_id then
             failf "%s: duplicate journal id %S" where e.e_id;
           t.entries <- e :: t.entries;
           Hashtbl.replace t.by_id e.e_id e;
           Obs.incr c_restored;
           go (ln + 1)
       in
       go 2)

let create ?path ?(done_tail = 1024) ~base_seed () =
  if done_tail < 0 then failf "journal: done_tail must be >= 0 (got %d)" done_tail;
  let t =
    { path; base_seed; done_tail; next_index = 0; entries = [];
      by_id = Hashtbl.create 64 }
  in
  (match path with
   | Some p when Sys.file_exists p -> load_file t p
   | _ -> ());
  t

(* --- mutation ---------------------------------------------------------- *)

let take_index t =
  let i = t.next_index in
  t.next_index <- i + 1;
  i

let accept t ~id ~tenant ~seed ~line =
  if Hashtbl.mem t.by_id id then failf "journal: duplicate accept of id %S" id;
  let e = { e_id = id; e_tenant = tenant; e_seed = seed; e_line = line; e_state = Pending } in
  t.entries <- e :: t.entries;
  Hashtbl.replace t.by_id id e;
  compact t;
  flush t;
  e

let complete t ~id ~result =
  match Hashtbl.find_opt t.by_id id with
  | None -> failf "journal: complete of unknown id %S" id
  | Some e ->
    e.e_state <- Done result;
    compact t;
    flush t

let find t id = Hashtbl.find_opt t.by_id id

let pending t =
  List.rev
    (List.filter (fun e -> match e.e_state with Pending -> true | Done _ -> false) t.entries)

let done_results t =
  List.rev
    (List.filter_map
       (fun e -> match e.e_state with Done r -> Some (e.e_id, r) | Pending -> None)
       t.entries)

let size t = List.length t.entries
let base_seed t = t.base_seed
