(* Always-compiled observability: named monotonic counters, float counters,
   gauges and wall-clock span timers backed by a process-global registry.

   Updates are atomic so Pool domains can bump instruments concurrently; every
   mutation is gated on the [enabled] flag so the disabled cost is one flag
   load and a branch per call site. The hot kernels only touch instruments
   once per invocation (per gate, per conversion, per pool job) — never per
   amplitude — which keeps the disabled overhead unmeasurable on the DMAV
   micro-benchmarks.

   Registration happens at module/package initialization time and is
   idempotent: asking for an already-registered name returns the existing
   instrument, so per-package constructors (e.g. [Dd.create]) can register
   freely. *)

(* An Atomic, not a ref: the flag is read on hot paths from pool domains
   and serve threads while the CLI may flip it — a plain ref is a data
   race under the memory model. *)
let enabled_ref = Atomic.make false
let enabled () = Atomic.get enabled_ref
let set_enabled b = Atomic.set enabled_ref b

type counter = { c_name : string; c_cell : int Atomic.t }
type fcounter = { fc_name : string; fc_cell : float Atomic.t }
type gauge = { g_name : string; g_cell : int Atomic.t }
type span = { s_name : string; s_count : int Atomic.t; s_ns : int Atomic.t }

(* Registration is rare; one mutex guards all four tables. Instrument
   *updates* never take it. *)
let registry_mutex = Mutex.create ()
let counter_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let fcounter_tbl : (string, fcounter) Hashtbl.t = Hashtbl.create 16
let gauge_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16
let span_tbl : (string, span) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register tbl name make =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some i -> i
      | None ->
        let i = make () in
        Hashtbl.add tbl name i;
        i)

let counter name =
  register counter_tbl name (fun () -> { c_name = name; c_cell = Atomic.make 0 })

let fcounter name =
  register fcounter_tbl name (fun () -> { fc_name = name; fc_cell = Atomic.make 0.0 })

let gauge name =
  register gauge_tbl name (fun () -> { g_name = name; g_cell = Atomic.make 0 })

let span name =
  register span_tbl name (fun () ->
      { s_name = name; s_count = Atomic.make 0; s_ns = Atomic.make 0 })

(* ------------------------------------------------------------------ *)
(* Updates (all no-ops while disabled)                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] incr c = if Atomic.get enabled_ref then ignore (Atomic.fetch_and_add c.c_cell 1)
let[@inline] add c n = if Atomic.get enabled_ref then ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell

let fadd fc x =
  if Atomic.get enabled_ref then begin
    let rec go () =
      let old = Atomic.get fc.fc_cell in
      if not (Atomic.compare_and_set fc.fc_cell old (old +. x)) then go ()
    in
    go ()
  end

let fvalue fc = Atomic.get fc.fc_cell

let set_gauge g v = if Atomic.get enabled_ref then Atomic.set g.g_cell v

let max_gauge g v =
  if Atomic.get enabled_ref then begin
    let rec go () =
      let old = Atomic.get g.g_cell in
      if v > old && not (Atomic.compare_and_set g.g_cell old v) then go ()
    in
    go ()
  end

let gauge_value g = Atomic.get g.g_cell

let add_span_ns s ns =
  if Atomic.get enabled_ref then begin
    ignore (Atomic.fetch_and_add s.s_count 1);
    ignore (Atomic.fetch_and_add s.s_ns ns)
  end

let with_span s f =
  if not (Atomic.get enabled_ref) then f ()
  else begin
    let t0 = Timer.now () in
    let r = f () in
    add_span_ns s (Timer.ns_since t0);
    r
  end

(* Like [with_span] but also returns the elapsed seconds of this one call,
   whether or not metrics are enabled — the simulator's per-phase seconds
   are a view over these local measurements. *)
let timed s f =
  let r, ns = Timer.time_ns f in
  if Atomic.get enabled_ref then add_span_ns s (Int64.to_int ns);
  (r, Int64.to_float ns *. 1e-9)

let span_count s = Atomic.get s.s_count
let span_seconds s = float_of_int (Atomic.get s.s_ns) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Crash-safe snapshot writes                                          *)
(* ------------------------------------------------------------------ *)

(* Write-then-rename so a reader never observes a truncated file: the
   temp file lives in the destination directory (rename must not cross a
   filesystem) and is removed if anything fails before the rename. Used
   for every JSON artifact the CLIs emit (metrics snapshots, batch result
   streams). *)
let atomic_write_file path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path ^ ".") ".tmp" in
  match
    let oc = open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
  with
  | () -> Sys.rename tmp path
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Snapshots and the stable JSON wire format                           *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  let schema = "qcs_obs/v1"

  type span_value = { count : int; seconds : float }

  type snapshot = {
    counters : (string * int) list;
    fcounters : (string * float) list;
    gauges : (string * int) list;
    spans : (string * span_value) list;
  }

  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l

  let snapshot () =
    locked (fun () ->
        { counters =
            sorted
              (Hashtbl.fold (fun k c acc -> (k, Atomic.get c.c_cell) :: acc) counter_tbl []);
          fcounters =
            sorted
              (Hashtbl.fold (fun k c acc -> (k, Atomic.get c.fc_cell) :: acc) fcounter_tbl []);
          gauges =
            sorted
              (Hashtbl.fold (fun k g acc -> (k, Atomic.get g.g_cell) :: acc) gauge_tbl []);
          spans =
            sorted
              (Hashtbl.fold
                 (fun k s acc ->
                    ( k,
                      { count = Atomic.get s.s_count;
                        seconds = float_of_int (Atomic.get s.s_ns) *. 1e-9 } )
                    :: acc)
                 span_tbl []) })

  let reset () =
    locked (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counter_tbl;
        Hashtbl.iter (fun _ c -> Atomic.set c.fc_cell 0.0) fcounter_tbl;
        Hashtbl.iter (fun _ g -> Atomic.set g.g_cell 0) gauge_tbl;
        Hashtbl.iter
          (fun _ s ->
             Atomic.set s.s_count 0;
             Atomic.set s.s_ns 0)
          span_tbl)

  (* Delta between two snapshots of the same registry: counters, fcounters
     and spans subtract (instruments registered only in [curr] keep their
     full value); gauges are instantaneous and come from [curr] unchanged.
     This is what makes periodic emission re-entrant — a streaming producer
     (the serve daemon's per-job metrics frames) diffs against its previous
     snapshot instead of calling [reset], so the process-lifetime totals
     survive any number of emissions. *)
  let diff base curr =
    let sub_int b (k, v) = v - Option.value (List.assoc_opt k b) ~default:0 in
    let sub_float b (k, v) = v -. Option.value (List.assoc_opt k b) ~default:0.0 in
    { counters = List.map (fun kv -> (fst kv, sub_int base.counters kv)) curr.counters;
      fcounters =
        List.map (fun kv -> (fst kv, sub_float base.fcounters kv)) curr.fcounters;
      gauges = curr.gauges;
      spans =
        List.map
          (fun (k, (s : span_value)) ->
             match List.assoc_opt k base.spans with
             | None -> (k, s)
             | Some b -> (k, { count = s.count - b.count; seconds = s.seconds -. b.seconds }))
          curr.spans }

  let counter_value snap name = List.assoc_opt name snap.counters
  let fcounter_value snap name = List.assoc_opt name snap.fcounters
  let gauge_value snap name = List.assoc_opt name snap.gauges
  let span_value snap name = List.assoc_opt name snap.spans

  let all_zero snap =
    List.for_all (fun (_, v) -> v = 0) snap.counters
    && List.for_all (fun (_, v) -> Float.equal v 0.0) snap.fcounters
    && List.for_all (fun (_, v) -> v = 0) snap.gauges
    && List.for_all (fun (_, s) -> s.count = 0 && Float.equal s.seconds 0.0) snap.spans

  (* --- emission ------------------------------------------------------- *)

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
         match ch with
         | '"' -> Buffer.add_string b "\\\""
         | '\\' -> Buffer.add_string b "\\\\"
         | '\n' -> Buffer.add_string b "\\n"
         | '\r' -> Buffer.add_string b "\\r"
         | '\t' -> Buffer.add_string b "\\t"
         | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
         | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let jstr s = "\"" ^ escape s ^ "\""

  (* %.17g round-trips every finite double through [float_of_string]. *)
  let jfloat v = Printf.sprintf "%.17g" v

  let to_json snap =
    let b = Buffer.create 4096 in
    let obj indent pairs render =
      match pairs with
      | [] -> Buffer.add_string b "{}"
      | _ ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
             if i > 0 then Buffer.add_string b ",\n";
             Buffer.add_string b indent;
             Buffer.add_string b (jstr k);
             Buffer.add_string b ": ";
             render v)
          pairs;
        Buffer.add_char b '\n';
        Buffer.add_string b (String.sub indent 0 (String.length indent - 2));
        Buffer.add_char b '}'
    in
    Buffer.add_string b "{\n";
    Buffer.add_string b ("  \"schema\": " ^ jstr schema ^ ",\n");
    Buffer.add_string b "  \"counters\": ";
    obj "    " snap.counters (fun v -> Buffer.add_string b (string_of_int v));
    Buffer.add_string b ",\n  \"fcounters\": ";
    obj "    " snap.fcounters (fun v -> Buffer.add_string b (jfloat v));
    Buffer.add_string b ",\n  \"gauges\": ";
    obj "    " snap.gauges (fun v -> Buffer.add_string b (string_of_int v));
    Buffer.add_string b ",\n  \"spans\": ";
    obj "    " snap.spans (fun (s : span_value) ->
        Buffer.add_string b
          (Printf.sprintf "{\"count\": %d, \"seconds\": %s}" s.count (jfloat s.seconds)));
    Buffer.add_string b "\n}\n";
    Buffer.contents b

  (* --- parsing (the subset [to_json] emits, for round-trip checks) ----- *)

  exception Parse_error of string

  type jv =
    | Jobj of (string * jv) list
    | Jarr of jv list
    | Jstr of string
    | Jnum of string
    | Jbool of bool
    | Jnull

  let parse_json text =
    let pos = ref 0 in
    let len = String.length text in
    let peek () = if !pos < len then Some text.[!pos] else None in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let advance () = pos := !pos + 1 in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\n' | '\t' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect ch =
      match peek () with
      | Some c when c = ch -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" ch)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some '"' -> Buffer.add_char b '"'; advance ()
           | Some '\\' -> Buffer.add_char b '\\'; advance ()
           | Some '/' -> Buffer.add_char b '/'; advance ()
           | Some 'n' -> Buffer.add_char b '\n'; advance ()
           | Some 'r' -> Buffer.add_char b '\r'; advance ()
           | Some 't' -> Buffer.add_char b '\t'; advance ()
           | Some 'u' ->
             advance ();
             if !pos + 4 > len then fail "bad \\u escape";
             let code = int_of_string ("0x" ^ String.sub text !pos 4) in
             pos := !pos + 4;
             (* Names are ASCII; anything else round-trips as '?'. *)
             Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
           | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' -> parse_obj ()
      | Some '[' -> parse_arr ()
      | Some '"' -> Jstr (parse_string ())
      | Some 't' ->
        if !pos + 4 <= len && String.sub text !pos 4 = "true" then (pos := !pos + 4; Jbool true)
        else fail "bad literal"
      | Some 'f' ->
        if !pos + 5 <= len && String.sub text !pos 5 = "false" then (pos := !pos + 5; Jbool false)
        else fail "bad literal"
      | Some 'n' ->
        if !pos + 4 <= len && String.sub text !pos 4 = "null" then (pos := !pos + 4; Jnull)
        else fail "bad literal"
      | Some c when is_num_char c ->
        let start = !pos in
        while (match peek () with Some c when is_num_char c -> true | _ -> false) do
          advance ()
        done;
        Jnum (String.sub text start (!pos - start))
      | _ -> fail "unexpected character"
    and parse_obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Jobj (members [])
      end
    and parse_arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Jarr (elements [])
      end
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing input";
    v

  let of_json text =
    let top =
      match parse_json text with
      | Jobj kvs -> kvs
      | _ -> raise (Parse_error "top-level value is not an object")
    in
    (match List.assoc_opt "schema" top with
     | Some (Jstr s) when s = schema -> ()
     | Some (Jstr s) -> raise (Parse_error ("unknown schema " ^ s))
     | _ -> raise (Parse_error "missing schema field"));
    let section name =
      match List.assoc_opt name top with
      | Some (Jobj kvs) -> kvs
      | _ -> raise (Parse_error ("missing object field " ^ name))
    in
    let num conv = function
      | Jnum s -> conv s
      | _ -> raise (Parse_error "expected number")
    in
    let span_of = function
      | Jobj kvs ->
        { count =
            (match List.assoc_opt "count" kvs with
             | Some v -> num int_of_string v
             | None -> raise (Parse_error "span without count"));
          seconds =
            (match List.assoc_opt "seconds" kvs with
             | Some v -> num float_of_string v
             | None -> raise (Parse_error "span without seconds")) }
      | _ -> raise (Parse_error "span is not an object")
    in
    { counters = List.map (fun (k, v) -> (k, num int_of_string v)) (section "counters");
      fcounters = List.map (fun (k, v) -> (k, num float_of_string v)) (section "fcounters");
      gauges = List.map (fun (k, v) -> (k, num int_of_string v)) (section "gauges");
      spans = List.map (fun (k, v) -> (k, span_of v)) (section "spans") }

  let write_file path snap = atomic_write_file path (to_json snap)

  (* --- human-readable rendering for the CLI ---------------------------- *)

  let to_text snap =
    let b = Buffer.create 2048 in
    let section title rows render =
      let rows = List.filter (fun (_, v) -> render v <> None) rows in
      if rows <> [] then begin
        Buffer.add_string b (title ^ ":\n");
        let w = List.fold_left (fun acc (k, _) -> Int.max acc (String.length k)) 0 rows in
        List.iter
          (fun (k, v) ->
             match render v with
             | Some s ->
               Buffer.add_string b
                 (Printf.sprintf "  %s%s  %s\n" k (String.make (w - String.length k) ' ') s)
             | None -> ())
          rows
      end
    in
    section "counters" snap.counters (fun v -> if v = 0 then None else Some (string_of_int v));
    section "fcounters" snap.fcounters (fun v ->
        if Float.equal v 0.0 then None else Some (Printf.sprintf "%.6g" v));
    section "gauges" snap.gauges (fun v -> if v = 0 then None else Some (string_of_int v));
    section "spans" snap.spans (fun (s : span_value) ->
        if s.count = 0 then None
        else Some (Printf.sprintf "count=%-8d %.6fs" s.count s.seconds));
    Buffer.contents b
end
