(* Manifest lines ride the minimal JSON parser that already ships with
   the metrics layer (Obs.Metrics.parse_json) — flat objects of strings,
   numbers and booleans are all the schema needs. Rendering keeps a fixed
   key order and prints floats with %.17g so identical runs produce
   identical bytes; every timing key ends in "_s" and can be suppressed
   wholesale for byte-comparison of two runs. *)

exception Error of string

type resolved = { job : Sched.job; seed : int; explicit_seed : bool }

let failf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* --- field accessors over one parsed line ----------------------------- *)

open Obs.Metrics

let field kvs name = List.assoc_opt name kvs

let str_field ~where kvs name =
  match field kvs name with
  | None -> None
  | Some (Jstr s) -> Some s
  | Some _ -> failf "%s: field %S must be a string" where name

let int_field ~where kvs name =
  match field kvs name with
  | None -> None
  | Some (Jnum s) ->
    (match int_of_string_opt s with
     | Some v -> Some v
     | None -> failf "%s: field %S must be an integer (got %s)" where name s)
  | Some _ -> failf "%s: field %S must be an integer" where name

let float_field ~where kvs name =
  match field kvs name with
  | None -> None
  | Some (Jnum s) ->
    (match float_of_string_opt s with
     | Some v -> Some v
     | None -> failf "%s: field %S must be a number (got %s)" where name s)
  | Some _ -> failf "%s: field %S must be a number" where name

let known_fields =
  [ "schema"; "id"; "tenant"; "circuit"; "qasm"; "n"; "gates"; "seed"; "priority";
    "deadline_s"; "max_retries"; "beta"; "epsilon"; "compact_every"; "fusion";
    "policy"; "dd_domains"; "order"; "precision" ]

let schema = "qcs_sched/v1"
let schema_prefix = "qcs_sched/v"

(* The optional per-line "schema" tag is version-strict: v1 parses, any
   other qcs_sched version is rejected with a line-numbered error rather
   than silently defaulting the fields that version might redefine. *)
let check_schema ~where = function
  | None -> ()
  | Some s when String.equal s schema -> ()
  | Some s
    when String.length s > String.length schema_prefix
         && String.equal (String.sub s 0 (String.length schema_prefix)) schema_prefix ->
    failf "%s: unsupported manifest schema version %S (this parser speaks %s)"
      where s schema
  | Some s -> failf "%s: unknown schema %S (expected %s)" where s schema

let parse_line ?(default_config = Config.default) ?(base_seed = 1) ?(dir = ".")
    ?(strict = true) ~index line =
  let where = Printf.sprintf "manifest line %d" (index + 1) in
  let kvs =
    match parse_json line with
    | Jobj kvs -> kvs
    | _ -> failf "%s: not a JSON object" where
    | exception Parse_error m -> failf "%s: %s" where m
  in
  (* Unknown top-level fields are rejected under [strict] (the default);
     a tolerant parser — the serve daemon fed by a newer client — can opt
     out and skip fields it does not understand. *)
  if strict then
    List.iter
      (fun (k, _) ->
         if not (List.mem k known_fields) then failf "%s: unknown field %S" where k)
      kvs;
  check_schema ~where (str_field ~where kvs "schema");
  let id =
    match str_field ~where kvs "id" with
    | Some id when id <> "" -> id
    | Some _ -> failf "%s: empty id" where
    | None -> Printf.sprintf "job-%d" index
  in
  let explicit_seed, seed =
    match int_field ~where kvs "seed" with
    | Some s -> (true, s)
    | None -> (false, Rng.derive base_seed index)
  in
  let tenant = Option.value (str_field ~where kvs "tenant") ~default:"" in
  (* Older clients pinned "dd_domains":1 into every line they sent, so
     journals written before the DD phase became single-domain still
     carry it. Accept that value as a no-op; anything else asked for a
     mode that no longer exists. *)
  (match int_field ~where kvs "dd_domains" with
   | None | Some 1 -> ()
   | Some d when d > 1 ->
     failf "%s: dd_domains > 1 is no longer supported (the DD phase is single-domain)"
       where
   | Some d -> failf "%s: dd_domains must be 1 (got %d)" where d);
  (* Lines written before dynamic sifting was deleted may carry
     "order":"sift", which ran the static order first. Accept that
     spelling as the static order; the CLI flags no longer take it. *)
  let order =
    match field kvs "order" with
    | None -> None
    | Some (Jstr "sift") -> Some Config.Static_order
    | Some (Jstr s) when Config.order_of_name s <> None -> Config.order_of_name s
    | Some _ -> failf "%s: order is \"none\" | \"static\"" where
  in
  let circuit =
    match str_field ~where kvs "circuit", str_field ~where kvs "qasm" with
    | Some _, Some _ -> failf "%s: give either \"circuit\" or \"qasm\", not both" where
    | None, None -> failf "%s: missing \"circuit\" (family) or \"qasm\" (path)" where
    | None, Some path ->
      let path = if Filename.is_relative path then Filename.concat dir path else path in
      (try (Qasm.of_file path).Qasm.circuit with
       | Qasm.Parse_error _ as e ->
         failf "%s: %s" where (Format.asprintf "%a" Qasm.pp_error e)
       | Sys_error m -> failf "%s: %s" where m)
    | Some family, None ->
      let fam =
        match Suite.family_of_name family with
        | Some f -> f
        | None -> failf "%s: unknown circuit family %S" where family
      in
      let n =
        match int_field ~where kvs "n" with
        | Some n when n >= 1 -> n
        | Some n -> failf "%s: n must be >= 1 (got %d)" where n
        | None -> failf "%s: \"n\" is required with a circuit family" where
      in
      let gates = int_field ~where kvs "gates" in
      Suite.generate ?gates ~seed fam ~n
  in
  let config =
    let cfg = default_config in
    let cfg =
      match float_field ~where kvs "beta" with
      | Some beta -> { cfg with Config.beta }
      | None -> cfg
    in
    let cfg =
      match float_field ~where kvs "epsilon" with
      | Some epsilon -> { cfg with Config.epsilon }
      | None -> cfg
    in
    let cfg =
      match int_field ~where kvs "compact_every" with
      | Some compact_every -> { cfg with Config.compact_every }
      | None -> cfg
    in
    let cfg =
      match field kvs "fusion" with
      | None -> cfg
      | Some (Jstr "none") -> { cfg with Config.fusion = Config.No_fusion }
      | Some (Jstr "dmav") -> { cfg with Config.fusion = Config.Dmav_aware }
      | Some (Jnum s) when int_of_string_opt s <> None && int_of_string s >= 1 ->
        { cfg with Config.fusion = Config.K_operations (int_of_string s) }
      | Some _ -> failf "%s: fusion is \"none\" | \"dmav\" | k >= 1" where
    in
    let cfg =
      match field kvs "policy" with
      | None -> cfg
      | Some (Jstr "ewma") -> { cfg with Config.policy = Config.Ewma_policy }
      | Some (Jstr "never") -> { cfg with Config.policy = Config.Never_convert }
      | Some (Jnum s) when int_of_string_opt s <> None ->
        { cfg with Config.policy = Config.Convert_at (int_of_string s) }
      | Some _ -> failf "%s: policy is \"ewma\" | \"never\" | convert-at gate index" where
    in
    let cfg = match order with Some order -> { cfg with Config.order } | None -> cfg in
    let cfg =
      match field kvs "precision" with
      | None -> cfg
      | Some (Jstr s) when Config.precision_of_name s <> None ->
        { cfg with Config.precision = Option.get (Config.precision_of_name s) }
      | Some _ -> failf "%s: precision is \"f64\" | \"f32\"" where
    in
    cfg
  in
  let priority = Option.value (int_field ~where kvs "priority") ~default:0 in
  let deadline_s = Option.value (float_field ~where kvs "deadline_s") ~default:0.0 in
  let max_retries =
    match int_field ~where kvs "max_retries" with
    | Some r when r >= 0 -> r
    | Some r -> failf "%s: max_retries must be >= 0 (got %d)" where r
    | None -> 0
  in
  { job = Sched.job ~config ~tenant ~priority ~deadline_s ~max_retries ~id circuit;
    seed;
    explicit_seed }

let load ?default_config ?base_seed ?strict path =
  let dir = Filename.dirname path in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let rec go index acc seen =
         match input_line ic with
         | exception End_of_file -> List.rev acc
         | line ->
           let stripped = String.trim line in
           if stripped = "" || stripped.[0] = '#' then go (index + 1) acc seen
           else begin
             let r = parse_line ?default_config ?base_seed ~dir ?strict ~index stripped in
             let id = r.job.Sched.id in
             if List.mem id seen then
               failf "manifest line %d: duplicate job id %S" (index + 1) id;
             go (index + 1) (r :: acc) (id :: seen)
           end
       in
       go 0 [] [])

(* --- result stream ----------------------------------------------------- *)

(* Logical-basis p0. [Driver.amplitude] walks the result's recorded
   qubit order; index 0 is order-invariant, so `--order none` keeps the
   exact bytes this produced before the order layer existed. *)
let p0_of result = Cnum.norm2 (Driver.amplitude result 0)

let result_line ?(timings = true) ~seed (jr : Sched.job_result) =
  let job = jr.Sched.job in
  let b = Buffer.create 256 in
  let sep () = Buffer.add_char b ',' in
  let key k = Buffer.add_string b (Printf.sprintf "\"%s\":" k) in
  let str k v =
    key k;
    Buffer.add_string b ("\"" ^ escape v ^ "\"")
  in
  let int k v =
    key k;
    Buffer.add_string b (string_of_int v)
  in
  let opt_int k v =
    key k;
    Buffer.add_string b (match v with Some v -> string_of_int v | None -> "null")
  in
  let flt k v =
    key k;
    Buffer.add_string b (Printf.sprintf "%.17g" v)
  in
  let bool k v =
    key k;
    Buffer.add_string b (if v then "true" else "false")
  in
  Buffer.add_char b '{';
  str "schema" "qcs_sched/v1";
  sep ();
  str "id" job.Sched.id;
  sep ();
  if job.Sched.tenant <> "" then begin
    str "tenant" job.Sched.tenant;
    sep ()
  end;
  str "outcome" (Sched.outcome_name jr.Sched.outcome);
  sep ();
  int "priority" job.Sched.priority;
  sep ();
  int "seed" seed;
  sep ();
  int "n" job.Sched.circuit.Circuit.n;
  sep ();
  int "gates" (Circuit.num_gates job.Sched.circuit);
  sep ();
  int "attempts" jr.Sched.attempts;
  sep ();
  bool "downgraded" jr.Sched.downgraded;
  sep ();
  (match jr.Sched.outcome with
   | Sched.Completed r ->
     opt_int "converted_at" r.Driver.converted_at;
     sep ();
     key "p0";
     Buffer.add_string b (Printf.sprintf "%.17g" (p0_of r));
     sep ();
     key "error";
     Buffer.add_string b "null"
   | Sched.Failed e ->
     opt_int "converted_at" None;
     sep ();
     key "p0";
     Buffer.add_string b "null";
     sep ();
     str "error" (Printexc.to_string e)
   | Sched.Timed_out | Sched.Cancelled ->
     opt_int "converted_at" None;
     sep ();
     key "p0";
     Buffer.add_string b "null";
     sep ();
     key "error";
     Buffer.add_string b "null");
  if timings then begin
    sep ();
    flt "queue_wait_s" jr.Sched.queue_wait_s;
    sep ();
    flt "run_s" jr.Sched.run_s;
    (match jr.Sched.outcome with
     | Sched.Completed r ->
       sep ();
       flt "dd_s" r.Driver.seconds_dd;
       sep ();
       flt "convert_s" r.Driver.seconds_convert;
       sep ();
       flt "dmav_s" r.Driver.seconds_dmav
     | _ -> ())
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let result_lines ?timings pairs =
  String.concat ""
    (List.map
       (fun ({ seed; _ }, jr) -> result_line ?timings ~seed jr ^ "\n")
       pairs)
