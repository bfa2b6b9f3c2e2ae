(* Algorithm 3 over matrix DDs, as the flat phase ran it before narrow
   gates were multiplied as 2×2 and 4×4 matrices: every product is a
   DDMM, every price [Cost.price] of a DD. The tests compare the scan's
   grouping against it and take its fused streams as kernel inputs. *)
let dmav_aware ?identity_price ?local_rate p gates =
  let price m = Cost.price ?identity_price ?local_rate p m in
  let out = ref [] and pending = ref None in
  List.iter
    (fun m_i ->
       let c_i = price m_i in
       match !pending with
       | None -> pending := Some (m_i, c_i)
       | Some (m_p, c_p) ->
         let m_ip = Dd.mm p m_i m_p in
         let c_ip = price m_ip in
         if c_i +. c_p < c_ip then begin
           out := m_p :: !out;
           pending := Some (m_i, c_i)
         end
         else pending := Some (m_ip, c_ip))
    gates;
  (match !pending with Some (m, _) -> out := m :: !out | None -> ());
  List.rev !out
