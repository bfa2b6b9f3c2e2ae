type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  macs_before : float;
  macs_after : float;
}

let sum_macs p gates =
  List.fold_left (fun acc g -> acc +. Cost.mac_count p g) 0.0 gates

(* "accepted" = a DDMM product was kept as the pending fused gate;
   "rejected" = the product cost more modeled MACs than applying the two
   gates separately, so the pending gate was emitted instead. *)
let c_runs = Obs.counter "fusion.runs"
let c_gates_in = Obs.counter "fusion.gates_in"
let c_gates_out = Obs.counter "fusion.gates_out"
let c_ddmm_calls = Obs.counter "fusion.ddmm_calls"
let c_accepted = Obs.counter "fusion.accepted"
let c_rejected = Obs.counter "fusion.rejected"
let fc_macs_saved = Obs.fcounter "fusion.macs_saved"

let finish ~gates_in ~ddmm_calls ~macs_before ~macs_after out =
  let st = { gates_in; gates_out = List.length out; ddmm_calls; macs_before; macs_after } in
  if Obs.enabled () then begin
    Obs.incr c_runs;
    Obs.add c_gates_in st.gates_in;
    Obs.add c_gates_out st.gates_out;
    Obs.add c_ddmm_calls st.ddmm_calls;
    Obs.fadd fc_macs_saved (st.macs_before -. st.macs_after)
  end;
  (out, st)

let dmav_aware p gates =
  let ddmm = ref 0 in
  (* M_p starts as a virtual identity with zero cost: the first real gate
     always "fuses" into it, so the identity itself is never emitted. *)
  let out = ref [] in
  let m_p = ref None in
  let c_p = ref 0.0 in
  (* The stats' MAC sums, accumulated in input and output order from the
     costs the scan computes anyway: the same floats as [sum_macs]. *)
  let macs_before = ref 0.0 and macs_after = ref 0.0 in
  let emit m c =
    out := m :: !out;
    macs_after := !macs_after +. c
  in
  List.iter
    (fun m_i ->
       let c_i = Cost.mac_count p m_i in
       macs_before := !macs_before +. c_i;
       match !m_p with
       | None ->
         m_p := Some m_i;
         c_p := c_i
       | Some prev ->
         incr ddmm;
         (* Gates apply left-to-right, so the fused operator is M_i · M_p. *)
         let m_ip = Dd.mm p m_i prev in
         let c_ip = Cost.mac_count p m_ip in
         if c_i +. !c_p < c_ip then begin
           Obs.incr c_rejected;
           emit prev !c_p;
           m_p := Some m_i;
           c_p := c_i
         end
         else begin
           Obs.incr c_accepted;
           m_p := Some m_ip;
           c_p := c_ip
         end)
    gates;
  (* The paper's Algorithm 3 leaves the final pending gate implicit; it
     must be emitted for the product to be complete. *)
  (match !m_p with Some m -> emit m !c_p | None -> ());
  finish ~gates_in:(List.length gates) ~ddmm_calls:!ddmm ~macs_before:!macs_before
    ~macs_after:!macs_after (List.rev !out)

let k_operations p ~k gates =
  if k < 1 then invalid_arg "Fusion.k_operations: k must be >= 1";
  let macs_before = sum_macs p gates in
  let ddmm = ref 0 in
  let out = ref [] in
  let pending = ref None in
  let count = ref 0 in
  List.iter
    (fun m_i ->
       (match !pending with
        | None ->
          pending := Some m_i;
          count := 1
        | Some prev ->
          incr ddmm;
          Obs.incr c_accepted;
          pending := Some (Dd.mm p m_i prev);
          count := !count + 1);
       if !count = k then begin
         (match !pending with Some m -> out := m :: !out | None -> ());
         pending := None;
         count := 0
       end)
    gates;
  (match !pending with Some m -> out := m :: !out | None -> ());
  let out = List.rev !out in
  finish ~gates_in:(List.length gates) ~ddmm_calls:!ddmm ~macs_before
    ~macs_after:(sum_macs p out) out
