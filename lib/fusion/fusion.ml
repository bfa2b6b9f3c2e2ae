type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  narrow_products : int;
  macs_before : float;
  macs_after : float;
}

type gate = Narrow of Flat_gate.local | Wide of Dd.medge

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

(* The planner's parts that touch the DD package. *)
let s_gate_dd = Obs.span "plan.gate_dd"
let s_ddmm = Obs.span "plan.ddmm"
let s_price = Obs.span "plan.price"

let gate_dd build = Obs.with_span s_gate_dd build

let to_dd p ~n = function Narrow l -> Flat_gate.local_dd p ~n l | Wide m -> m

let of_op p ~n op =
  match Flat_gate.local_of_op ~n op with
  | Some l -> Narrow l
  | None -> Wide (gate_dd (fun () -> Mat_dd.of_op p ~n op))

let compile p ~n ~threads ?op = function
  | Narrow l -> Flat_gate.of_local ~n ~threads ?op l
  | Wide m -> Flat_gate.compile p ~n ~threads ?op m

(* A gate of a scan: its narrow form when it has one, and its matrix DD,
   built when first forced (a narrow op's from the op, a narrow
   product's from its form, a product priced from its matrix as the
   DDMM of its two sides). *)
type pending = { form : Flat_gate.local option; dd : Dd.medge Lazy.t }

(* What both scans share: the package, the gate steps and the stats,
   which keep Eq. 5's MAC meaning: each input and output gate's plain
   MACs, in list order. *)
type scan = { p : Dd.package; n : int; mutable st : stats }

let scan p ~n =
  { p; n; st = { gates_in = 0; gates_out = 0; ddmm_calls = 0; narrow_products = 0;
                 macs_before = 0.0; macs_after = 0.0 } }

let macs sc g =
  match g.form with
  | Some l -> Flat_gate.local_paths ~n:sc.n ~terminal:1.0 ~identity:1.0 ~visit:0.0 l
  | None -> Cost.mac_count sc.p (Lazy.force g.dd)

(* An input op as a scan gate, as [of_op] builds it: a wide op's DD is
   built at once, for its MACs. *)
let input sc op =
  let dd = lazy (gate_dd (fun () -> Mat_dd.of_op sc.p ~n:sc.n op)) in
  let g = { form = Flat_gate.local_of_op ~n:sc.n op; dd } in
  let m = macs sc g in
  sc.st <- { sc.st with gates_in = sc.st.gates_in + 1; macs_before = sc.st.macs_before +. m };
  g

(* M_i · M_p (gates apply left to right). Two narrow gates multiply as
   matrices on their union: on at most two levels the product stays
   narrow; on three or four it comes with its price from the matrix, and
   its DD is a DDMM left for [keep] to build. Any other pair is a DDMM
   now. *)
let product sc ~identity g_i g_p =
  let ddmm () =
    sc.st <- { sc.st with ddmm_calls = sc.st.ddmm_calls + 1 };
    let m_i = Lazy.force g_i.dd in
    let m_p = Lazy.force g_p.dd in
    Obs.with_span s_ddmm (fun () -> Dd.mm sc.p m_i m_p)
  in
  match g_i.form, g_p.form with
  | Some a, Some b -> (
      sc.st <- { sc.st with narrow_products = sc.st.narrow_products + 1 };
      match Flat_gate.local_product ~n:sc.n ~identity a b with
      | Flat_gate.Narrow_product l ->
        ({ form = Some l; dd = lazy (gate_dd (fun () -> Flat_gate.local_dd sc.p ~n:sc.n l)) }, None)
      | Flat_gate.Wide_product run -> ({ form = None; dd = lazy (ddmm ()) }, Some run))
  | _ -> ({ form = None; dd = Lazy.from_val (ddmm ()) }, None)

(* A kept product: a wide one's DD is built now, in the scan's order. *)
let keep g =
  if Option.is_none g.form then ignore (Lazy.force g.dd);
  g

let output sc emit g =
  let m = macs sc g in
  sc.st <- { sc.st with gates_out = sc.st.gates_out + 1; macs_after = sc.st.macs_after +. m };
  emit (match g.form with Some l -> Narrow l | None -> Wide (Lazy.force g.dd))

let finish { st; _ } =
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
  let ident = Option.value identity_price ~default:Cost.identity_price in
  let sc = scan p ~n in
  (* A narrow gate's price is its local leg's or its Run's; a wide
     gate's is its Run's. A product priced from its matrix comes with its
     price [run]. *)
  let price ?run g =
    match run, g.form with
    | Some run, _ -> run
    | None, Some l ->
      Cost.local_price ?local_rate ~n ~support:l.Flat_gate.support
        (Flat_gate.local_paths ~n ~terminal:1.0 ~identity:ident ~visit:Cost.visit_price l)
    | None, None ->
      Obs.with_span s_price (fun () -> Cost.priced_macs ?identity_price p (Lazy.force g.dd))
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
         let g_ip, run = product sc ~identity:ident g_i g_p in
         let c_ip = price ?run g_ip in
         if c_i +. c_p < c_ip then begin
           Obs.incr c_rejected;
           output sc emit g_p;
           pending := Some (g_i, c_i)
         end
         else begin
           Obs.incr c_accepted;
           pending := Some (keep g_ip, c_ip)
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
           keep (fst (product sc ~identity:Cost.identity_price g_i g_p))
       in
       pending := if (i + 1) mod k = 0 then (output sc emit g; None) else Some g)
    ops;
  Option.iter (output sc emit) !pending;
  finish sc
