(* The serve wire protocol: newline-delimited JSON in both directions over
   a Unix-domain stream socket, schema [qcs_serve/v1].

   Client → server lines are either control objects carrying an "op" field
   or job objects — exactly the qcs_sched/v1 manifest line schema (plus
   "tenant"/"seed"/"schema"), so a manifest file IS the request stream.
   Server → client lines are frames tagged by a "frame" field. Result
   frames carry the qcs_sched/v1 result line as an escaped string, so the
   client recovers the byte-exact line a local flatdd_batch run would have
   written. *)

exception Error of string

let schema = "qcs_serve/v1"

let failf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* --- JSON helpers over the Obs.Metrics parser ------------------------- *)

open Obs.Metrics

(* Re-render a parsed JSON value on one line. Numbers round-trip exactly
   ([Jnum] keeps the source digits), so pinning a field into a manifest
   line never perturbs the ones already there. *)
let rec render_jv b = function
  | Jnull -> Buffer.add_string b "null"
  | Jbool v -> Buffer.add_string b (if v then "true" else "false")
  | Jnum s -> Buffer.add_string b s
  | Jstr s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Jarr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         render_jv b v)
      vs;
    Buffer.add_char b ']'
  | Jobj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_char b '"';
         Buffer.add_string b (escape k);
         Buffer.add_string b "\":";
         render_jv b v)
      kvs;
    Buffer.add_char b '}'

let render_obj kvs =
  let b = Buffer.create 128 in
  render_jv b (Jobj kvs);
  Buffer.contents b

(* [set_field kvs k v] replaces [k] in place or appends it, keeping the
   original key order — stored journal lines stay diffable against what
   the client sent. *)
let set_field kvs k v =
  if List.mem_assoc k kvs then
    List.map (fun (k', v') -> if String.equal k' k then (k', v) else (k', v')) kvs
  else kvs @ [ (k, v) ]

let one_line s =
  String.concat "" (String.split_on_char '\n' s)

(* --- server → client frames ------------------------------------------- *)

type frame =
  | Hello of { server : string }
  | Accepted of { id : string; seed : int; replay : bool }
  | Rejected of { id : string option; reason : string }
  | Result of { id : string; line : string }
  | Metrics of { body : string } (* compact qcs_obs/v1 JSON text *)
  | Pong
  | Bye of { results : int }

let render_frame f =
  let b = Buffer.create 128 in
  let tag name = Buffer.add_string b (Printf.sprintf "{\"frame\":\"%s\"" name) in
  (match f with
   | Hello { server } ->
     tag "hello";
     Buffer.add_string b
       (Printf.sprintf ",\"schema\":\"%s\",\"server\":\"%s\"" schema (escape server))
   | Accepted { id; seed; replay } ->
     tag "accepted";
     Buffer.add_string b
       (Printf.sprintf ",\"id\":\"%s\",\"seed\":%d,\"replay\":%b" (escape id) seed replay)
   | Rejected { id; reason } ->
     tag "rejected";
     Buffer.add_string b
       (Printf.sprintf ",\"id\":%s,\"reason\":\"%s\""
          (match id with None -> "null" | Some id -> "\"" ^ escape id ^ "\"")
          (escape reason))
   | Result { id; line } ->
     tag "result";
     Buffer.add_string b
       (Printf.sprintf ",\"id\":\"%s\",\"line\":\"%s\"" (escape id) (escape line))
   | Metrics { body } ->
     tag "metrics";
     Buffer.add_string b ",\"body\":";
     Buffer.add_string b (one_line body)
   | Pong -> tag "pong"
   | Bye { results } ->
     tag "bye";
     Buffer.add_string b (Printf.sprintf ",\"results\":%d" results));
  Buffer.add_char b '}';
  Buffer.contents b

let parse_frame line =
  let kvs =
    match parse_json line with
    | Jobj kvs -> kvs
    | _ -> failf "frame is not a JSON object"
    | exception Parse_error m -> failf "bad frame: %s" m
  in
  let str k =
    match List.assoc_opt k kvs with
    | Some (Jstr s) -> s
    | _ -> failf "frame missing string field %S" k
  in
  let int k =
    match List.assoc_opt k kvs with
    | Some (Jnum s) ->
      (match int_of_string_opt s with
       | Some v -> v
       | None -> failf "frame field %S is not an integer" k)
    | _ -> failf "frame missing integer field %S" k
  in
  match List.assoc_opt "frame" kvs with
  | Some (Jstr "hello") -> Hello { server = str "server" }
  | Some (Jstr "accepted") ->
    let replay =
      match List.assoc_opt "replay" kvs with Some (Jbool v) -> v | _ -> false
    in
    Accepted { id = str "id"; seed = int "seed"; replay }
  | Some (Jstr "rejected") ->
    let id = match List.assoc_opt "id" kvs with Some (Jstr s) -> Some s | _ -> None in
    Rejected { id; reason = str "reason" }
  | Some (Jstr "result") -> Result { id = str "id"; line = str "line" }
  | Some (Jstr "metrics") ->
    let body =
      match List.assoc_opt "body" kvs with
      | Some v ->
        let b = Buffer.create 256 in
        render_jv b v;
        Buffer.contents b
      | None -> failf "metrics frame without body"
    in
    Metrics { body }
  | Some (Jstr "pong") -> Pong
  | Some (Jstr "bye") -> Bye { results = int "results" }
  | Some (Jstr other) -> failf "unknown frame %S" other
  | _ -> failf "line has no \"frame\" field"

(* --- client → server requests ----------------------------------------- *)

type request =
  | Hello_req of { timings : bool; metrics : bool; tenant : string option }
  | Job of string (* raw manifest line *)
  | Metrics_req
  | Ping
  | End_req

let render_request = function
  | Hello_req { timings; metrics; tenant } ->
    Printf.sprintf "{\"op\":\"hello\",\"timings\":%b,\"metrics\":%b%s}" timings metrics
      (match tenant with
       | None -> ""
       | Some t -> Printf.sprintf ",\"tenant\":\"%s\"" (escape t))
  | Job line -> line
  | Metrics_req -> "{\"op\":\"metrics\"}"
  | Ping -> "{\"op\":\"ping\"}"
  | End_req -> "{\"op\":\"end\"}"

(* A request line is a control object iff it parses as JSON and carries an
   "op" field; anything else is handed to the manifest parser verbatim, so
   manifest-side errors keep their own (better) messages. *)
let parse_request line =
  match parse_json line with
  | exception Parse_error _ -> Job line
  | Jobj kvs ->
    (match List.assoc_opt "op" kvs with
     | Some (Jstr "hello") ->
       let flag k default =
         match List.assoc_opt k kvs with Some (Jbool v) -> v | _ -> default
       in
       let tenant =
         match List.assoc_opt "tenant" kvs with Some (Jstr s) -> Some s | _ -> None
       in
       Hello_req { timings = flag "timings" true; metrics = flag "metrics" false; tenant }
     | Some (Jstr "metrics") -> Metrics_req
     | Some (Jstr "ping") -> Ping
     | Some (Jstr "end") -> End_req
     | Some (Jstr other) -> failf "unknown op %S" other
     | Some _ -> failf "\"op\" must be a string"
     | None -> Job line)
  | _ -> Job line
