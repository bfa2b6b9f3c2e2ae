type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  narrow_products : int;
  macs_before : float;
  macs_after : float;
}

type gate = Narrow of Flat_gate.local | Wide of Dd.medge

let sum_macs p gates =
  List.fold_left (fun acc g -> acc +. Cost.mac_count p g) 0.0 gates

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

let finish ~gates_in ~gates_out ~ddmm_calls ~narrow_products ~macs_before ~macs_after =
  let st = { gates_in; gates_out; ddmm_calls; narrow_products; macs_before; macs_after } in
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

let to_dd p ~n = function Narrow l -> Flat_gate.local_dd p ~n l | Wide m -> m

(* A gate of the scan: its op while it is one unfused op, its narrow form
   when it has one, and its matrix DD once the wide route needed it. *)
type pending = {
  p_op : Circuit.op option;
  form : Flat_gate.local option;
  mutable dd : Dd.medge option;
  mutable cost : float;
}

let dmav_aware_iter ?identity_price ?local_rate ?(poll = ignore) p ~n ~emit ops =
  let ident = Option.value identity_price ~default:Cost.identity_price in
  let narrow_price (l : Flat_gate.local) =
    Cost.local_price ?local_rate ~n ~support:l.Flat_gate.support
      (Flat_gate.local_paths ~n ~terminal:1.0 ~identity:ident l)
  in
  let wide_price m = Obs.with_span s_price (fun () -> Cost.price ?identity_price ?local_rate p m) in
  let ddmm_calls = ref 0 in
  let dd_of g =
    match g.dd with
    | Some m -> m
    | None ->
      let m =
        Obs.with_span s_gate_dd (fun () ->
            match g.p_op, g.form with
            | Some op, _ -> Mat_dd.of_op p ~n op
            | None, Some l -> Flat_gate.local_dd p ~n l
            | None, None -> invalid_arg "Fusion: a wide gate without its DD")
      in
      g.dd <- Some m;
      m
  in
  (* M_i · M_p as DDs; a DDMM. *)
  let ddmm g_i g_p =
    incr ddmm_calls;
    let m_i = dd_of g_i in
    let m_p = dd_of g_p in
    Obs.with_span s_ddmm (fun () -> Dd.mm p m_i m_p)
  in
  let macs g =
    match g.form with
    | Some l -> Flat_gate.local_paths ~n ~terminal:1.0 ~identity:1.0 l
    | None -> Cost.mac_count p (dd_of g)
  in
  let narrow = ref 0 and gates_out = ref 0 in
  (* M_p starts as a virtual identity with zero cost: the first real gate
     always "fuses" into it, so the identity itself is never emitted. *)
  let pending = ref None in
  (* The stats keep Eq. 5's MAC meaning, so they count each input and
     output gate's plain MACs, in list order. *)
  let macs_before = ref 0.0 and macs_after = ref 0.0 in
  let emit g =
    incr gates_out;
    macs_after := !macs_after +. macs g;
    emit (match g.form with Some l -> Narrow l | None -> Wide (dd_of g))
  in
  List.iter
    (fun op ->
       poll ();
       let form = Flat_gate.local_of_op ~n op in
       let g_i = { p_op = Some op; form; dd = None; cost = 0.0 } in
       g_i.cost <- (match form with Some l -> narrow_price l | None -> wide_price (dd_of g_i));
       macs_before := !macs_before +. macs g_i;
       match !pending with
       | None -> pending := Some g_i
       | Some g_p ->
         (* Gates apply left-to-right, so the fused operator is M_i · M_p.
            Two narrow gates multiply as matrices on their union: the
            product stays narrow on at most two levels, else it is priced
            from its matrix and its DD (a DDMM) is built only if it is
            kept. Any other pair is a DDMM. *)
         let g_ip =
           match form, g_p.form with
           | Some a, Some b -> (
               incr narrow;
               match Flat_gate.local_product ~n ~identity:ident a b with
               | Flat_gate.Narrow_product l ->
                 { p_op = None; form = Some l; dd = None; cost = narrow_price l }
               | Flat_gate.Wide_product run ->
                 (* Priced without its DD: built below only if kept. *)
                 { p_op = None; form = None; dd = None; cost = run })
           | _ ->
             let m = ddmm g_i g_p in
             { p_op = None; form = None; dd = Some m; cost = wide_price m }
         in
         if g_i.cost +. g_p.cost < g_ip.cost then begin
           Obs.incr c_rejected;
           emit g_p;
           pending := Some g_i
         end
         else begin
           Obs.incr c_accepted;
           (match g_ip with
            | { form = None; dd = None; _ } -> g_ip.dd <- Some (ddmm g_i g_p)
            | _ -> ());
           pending := Some g_ip
         end)
    ops;
  (* The paper's Algorithm 3 leaves the final pending gate implicit; it
     must be emitted for the product to be complete. *)
  (match !pending with Some g -> emit g | None -> ());
  finish ~gates_in:(List.length ops) ~gates_out:!gates_out ~ddmm_calls:!ddmm_calls
    ~narrow_products:!narrow ~macs_before:!macs_before ~macs_after:!macs_after

let dmav_aware ?identity_price ?local_rate p ~n ops =
  collect (fun emit -> dmav_aware_iter ?identity_price ?local_rate p ~n ~emit ops)

let k_operations_iter ?(poll = ignore) p ~k ~emit gates =
  if k < 1 then invalid_arg "Fusion.k_operations: k must be >= 1";
  let macs_before = sum_macs p gates in
  let ddmm = ref 0 and gates_out = ref 0 and macs_after = ref 0.0 in
  let pending = ref None in
  let count = ref 0 in
  let flush () =
    (match !pending with
     | Some m ->
       incr gates_out;
       macs_after := !macs_after +. Cost.mac_count p m;
       emit m
     | None -> ());
    pending := None;
    count := 0
  in
  List.iter
    (fun m_i ->
       poll ();
       (match !pending with
        | None ->
          pending := Some m_i;
          count := 1
        | Some prev ->
          incr ddmm;
          Obs.incr c_accepted;
          pending := Some (Obs.with_span s_ddmm (fun () -> Dd.mm p m_i prev));
          count := !count + 1);
       if !count = k then flush ())
    gates;
  flush ();
  finish ~gates_in:(List.length gates) ~gates_out:!gates_out ~ddmm_calls:!ddmm
    ~narrow_products:0 ~macs_before ~macs_after:!macs_after

let k_operations p ~k gates = collect (fun emit -> k_operations_iter p ~k ~emit gates)
