type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  narrow_products : int;
  macs_before : float;
  macs_after : float;
}

type gate = Local of Flat_gate.local | Wide of Dd.medge

(* "accepted" = a product was kept as the pending fused gate;
   "rejected" = the product's price exceeded applying the two gates
   separately, so the pending gate was emitted instead. *)
let c_runs = Obs.counter "fusion.runs"
let c_gates_in = Obs.counter "fusion.gates_in"
let c_gates_out = Obs.counter "fusion.gates_out"
let c_ddmm_calls = Obs.counter "fusion.ddmm_calls"
let c_narrow_products = Obs.counter "fusion.narrow_products"
let c_accepted = Obs.counter "fusion.accepted"
let c_rejected = Obs.counter "fusion.rejected"
let fc_macs_saved = Obs.fcounter "fusion.macs_saved"

(* The planner's parts: the DD package's (a gate's DD, a DDMM, a walk
   of a DD's paths), the products of narrow gates, and the scan's own
   work (each op's form, narrow form and counts, the prices), which is
   the scan's time outside its other parts and its [emit]s; with
   [plan.compile] (the driver's, inside [emit]) they attribute
   [sim.flat_plan]. The scan's own span is taken once per scan, not per
   op: a clock read costs about as much as an op's form. *)
let s_gate_dd = Obs.span "plan.gate_dd"
let s_ddmm = Obs.span "plan.ddmm"
let s_price = Obs.span "plan.price"
let s_scan = Obs.span "plan.scan"
let s_narrow = Obs.span "plan.narrow"

let to_dd p ~n = function Local l -> Flat_gate.local_dd p ~n l | Wide m -> m

let compile p ~n ~threads = function
  | Local l -> Flat_gate.of_local ~n ~threads l
  | Wide m -> Flat_gate.compile p ~n ~threads m

(* A gate of a scan: its form when it has one (an op's, or a product's
   on at most two levels), which it is emitted as; the same form on at
   most two levels with its control folded in, which products multiply
   and the price reads ([narrow]); its matrix DD, built when first
   needed ([dd]: an op's from the op, a narrow product's from its form,
   a product priced from its matrix as the DDMM of its two sides); and
   its path counts, counted once (from the form or the product's matrix
   when it has one, else by walking the DD), which its MACs and its
   price read. *)
type pending = {
  form : Flat_gate.local option;
  narrow : Flat_gate.local option;
  mutable dd : source;
  mutable paths : Dd.paths option;  (* None until counted *)
}

and source =
  | Built of Dd.medge
  | Of_op of Circuit.op
  | Of_form of Flat_gate.local
  | Ddmm of pending * pending  (* M_i · M_p *)

(* What both scans share: the package, the gate steps and the counts of
   the stats, which keep Eq. 5's MAC meaning: each input and output
   gate's plain MACs, in list order ([macs]: before, after). *)
type scan = {
  p : Dd.package;
  n : int;
  mutable gates_in : int;
  mutable gates_out : int;
  mutable ddmm_calls : int;
  mutable narrow_products : int;
  macs : float array;
  started : float;  (* [Timer.now] at the start, with metrics on *)
  mutable timed_ns : int;  (* time in the parts with spans and in [emit] *)
}

let scan p ~n =
  { p; n; gates_in = 0; gates_out = 0; ddmm_calls = 0; narrow_products = 0;
    macs = [| 0.0; 0.0 |]; started = (if Obs.enabled () then Timer.now () else 0.0);
    timed_ns = 0 }

(* [f ()] timed as a part of the scan: on span [s], if given. *)
let part sc ?span f =
  if not (Obs.enabled ()) then f ()
  else begin
    let t0 = Timer.now () in
    let r = f () in
    let ns = Timer.ns_since t0 in
    Option.iter (fun s -> Obs.add_span_ns s ns) span;
    sc.timed_ns <- sc.timed_ns + ns;
    r
  end

let scan_gate sc ?paths form dd =
  { form; narrow = Option.bind form (Flat_gate.narrow ~n:sc.n); dd; paths }

(* The gate's DD, built on the first call. *)
let rec dd sc g =
  let built m =
    g.dd <- Built m;
    m
  in
  match g.dd with
  | Built m -> m
  | Of_op op -> built (part sc ~span:s_gate_dd (fun () -> Mat_dd.of_op sc.p ~n:sc.n op))
  | Of_form l -> built (part sc ~span:s_gate_dd (fun () -> Flat_gate.local_dd sc.p ~n:sc.n l))
  | Ddmm (g_i, g_p) -> built (ddmm sc g_i g_p)

and ddmm sc g_i g_p =
  sc.ddmm_calls <- sc.ddmm_calls + 1;
  let m_i = dd sc g_i in
  let m_p = dd sc g_p in
  part sc ~span:s_ddmm (fun () -> Dd.mm sc.p m_i m_p)

let paths sc g =
  match g.paths with
  | Some c -> c
  | None ->
    let c =
      match g.form with
      | Some l -> Flat_gate.local_paths ~n:sc.n l
      | None ->
        let m = dd sc g in
        part sc ~span:s_price (fun () -> Dd.priced_paths sc.p m)
    in
    g.paths <- Some c;
    c

let macs sc g = Cost.macs (paths sc g)

(* An input op as a scan gate: its form and counts; its DD is built
   only when a product needs it. *)
let input sc op =
  let g = scan_gate sc (Some (Flat_gate.local_of_op ~n:sc.n op)) (Of_op op) in
  sc.gates_in <- sc.gates_in + 1;
  sc.macs.(0) <- sc.macs.(0) +. macs sc g;
  g

(* M_i · M_p (gates apply left to right). Two narrow gates multiply as
   matrices on their union: on at most two levels the product stays
   narrow; on three or four it comes with its counts from the matrix,
   and its DD is a DDMM left for [keep] to build. Any other pair is a
   DDMM now. *)
let product sc g_i g_p =
  match g_i.narrow, g_p.narrow with
  | Some a, Some b ->
    sc.narrow_products <- sc.narrow_products + 1;
    part sc ~span:s_narrow (fun () ->
        match Flat_gate.local_product ~n:sc.n a b with
        | Flat_gate.Narrow_product l ->
          let g = scan_gate sc (Some l) (Of_form l) in
          ignore (paths sc g);
          g
        | Flat_gate.Wide_product c -> scan_gate sc ~paths:c None (Ddmm (g_i, g_p)))
  | _ -> scan_gate sc None (Built (ddmm sc g_i g_p))

(* A kept product: a wide one's DD is built now, in the scan's order. *)
let keep sc g =
  if Option.is_none g.form then ignore (dd sc g);
  g

let output sc emit g =
  sc.gates_out <- sc.gates_out + 1;
  sc.macs.(1) <- sc.macs.(1) +. macs sc g;
  let gate = match g.form with Some l -> Local l | None -> Wide (dd sc g) in
  part sc (fun () -> emit gate)

let finish sc =
  if Obs.enabled () then Obs.add_span_ns s_scan (Timer.ns_since sc.started - sc.timed_ns);
  let st =
    { gates_in = sc.gates_in; gates_out = sc.gates_out; ddmm_calls = sc.ddmm_calls;
      narrow_products = sc.narrow_products; macs_before = sc.macs.(0); macs_after = sc.macs.(1) }
  in
  if Obs.enabled () then begin
    Obs.incr c_runs;
    Obs.add c_gates_in st.gates_in;
    Obs.add c_gates_out st.gates_out;
    Obs.add c_ddmm_calls st.ddmm_calls;
    Obs.add c_narrow_products st.narrow_products;
    Obs.fadd fc_macs_saved (st.macs_before -. st.macs_after)
  end;
  st

(* The list forms collect what the streaming forms emit. *)
let collect scan =
  let out = ref [] in
  let st = scan (fun m -> out := m :: !out) in
  (List.rev !out, st)

let dmav_aware_iter ?identity_price ?local_rate ?(poll = ignore) p ~n ~emit ops =
  let sc = scan p ~n in
  (* A narrow gate's price is its local leg's or its Run's; a wide
     gate's is its Run's. *)
  let price g =
    let run = Cost.priced ?identity_price (paths sc g) in
    match g.narrow with
    | Some l -> Cost.local_price ?local_rate ~n ~support:l.Flat_gate.support run
    | None -> run
  in
  (* M_p starts as a virtual identity with zero cost: the first real gate
     always "fuses" into it, so the identity itself is never emitted. *)
  let pending = ref None in
  List.iter
    (fun op ->
       poll ();
       let g_i = input sc op in
       let c_i = price g_i in
       match !pending with
       | None -> pending := Some (g_i, c_i)
       | Some (g_p, c_p) ->
         let g_ip = product sc g_i g_p in
         let c_ip = price g_ip in
         if c_i +. c_p < c_ip then begin
           Obs.incr c_rejected;
           output sc emit g_p;
           pending := Some (g_i, c_i)
         end
         else begin
           Obs.incr c_accepted;
           pending := Some (keep sc g_ip, c_ip)
         end)
    ops;
  (* The paper's Algorithm 3 leaves the final pending gate implicit; it
     must be emitted for the product to be complete. *)
  Option.iter (fun (g, _) -> output sc emit g) !pending;
  finish sc

let dmav_aware ?identity_price ?local_rate p ~n ops =
  collect (fun emit -> dmav_aware_iter ?identity_price ?local_rate p ~n ~emit ops)

(* Every [k] consecutive ops multiply into one gate, whatever it costs. *)
let k_operations_iter ?(poll = ignore) p ~n ~k ~emit ops =
  if k < 1 then invalid_arg "Fusion.k_operations_iter: k must be >= 1";
  let sc = scan p ~n in
  let pending = ref None in
  List.iteri
    (fun i op ->
       poll ();
       let g_i = input sc op in
       let g =
         match !pending with
         | None -> g_i
         | Some g_p ->
           Obs.incr c_accepted;
           keep sc (product sc g_i g_p)
       in
       pending := if (i + 1) mod k = 0 then (output sc emit g; None) else Some g)
    ops;
  Option.iter (output sc emit) !pending;
  finish sc
