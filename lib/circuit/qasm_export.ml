exception Unsupported of string

(* u3(θ,φ,λ) = [[cos(θ/2), -e^{iλ}sin(θ/2)], [e^{iφ}sin(θ/2), e^{i(φ+λ)}cos(θ/2)]].
   A general U = e^{iα}·u3: recover θ from the moduli, the phases from the
   arguments, and α as the phase that makes entry (0,0) real positive. *)
let zyz (u : Gate.single) =
  let m00 = u.(0).(0) and m01 = u.(0).(1) in
  let m10 = u.(1).(0) and m11 = u.(1).(1) in
  let c = Cnum.norm m00 and s = Cnum.norm m10 in
  let theta = 2.0 *. atan2 s c in
  if s < 1e-12 then begin
    (* Diagonal: φ and λ are only constrained through their sum. *)
    let alpha = Cnum.arg m00 in
    let lambda = Cnum.arg m11 -. alpha in
    (alpha, 0.0, 0.0, lambda)
  end
  else if c < 1e-12 then begin
    (* Anti-diagonal: θ = π, φ - λ constrained. *)
    let alpha = Cnum.arg m10 in
    let lambda = Cnum.arg (Cnum.neg m01) -. alpha in
    (alpha, Float.pi, 0.0, lambda)
  end
  else begin
    let alpha = Cnum.arg m00 in
    let phi = Cnum.arg m10 -. alpha in
    let lambda = Cnum.arg (Cnum.neg m01) -. alpha in
    (alpha, theta, phi, lambda)
  end

let near tol a b = Float.abs (a -. b) < tol

(* Canonical angle in (-pi, pi]. *)
let wrap a =
  let two_pi = 2.0 *. Float.pi in
  let a = Float.rem a two_pi in
  if a > Float.pi then a -. two_pi else if a <= -.Float.pi then a +. two_pi else a

let f v = Printf.sprintf "%.17g" v

let q i = Printf.sprintf "q[%d]" i

let single_stmt name matrix target controls =
  let alpha, theta, phi, lambda = zyz matrix in
  let alpha = wrap alpha and theta = wrap theta and phi = wrap phi
  and lambda = wrap lambda in
  match controls with
  | [] ->
    (* Global phase unobservable. *)
    Printf.sprintf "u3(%s,%s,%s) %s;" (f theta) (f phi) (f lambda) (q target)
  | [ c ] ->
    let base =
      Printf.sprintf "cu3(%s,%s,%s) %s,%s;" (f theta) (f phi) (f lambda) (q c) (q target)
    in
    if near 1e-12 alpha 0.0 then base
    else
      (* Controlled-(e^{iα}U) = u1(α) on the control, then controlled-U. *)
      Printf.sprintf "u1(%s) %s;\n%s" (f alpha) (q c) base
  | [ c1; c2 ] ->
    if Gate.equal matrix Gate.x then Printf.sprintf "ccx %s,%s,%s;" (q c1) (q c2) (q target)
    else if Gate.equal matrix Gate.z then
      (* ccz = h t; ccx; h t *)
      Printf.sprintf "h %s;\nccx %s,%s,%s;\nh %s;" (q target) (q c1) (q c2) (q target)
        (q target)
    else
      raise
        (Unsupported
           (Printf.sprintf "doubly-controlled %s has no qelib1 spelling" name))
  | cs ->
    if Gate.equal matrix Gate.z || Gate.equal matrix Gate.x then
      raise
        (Unsupported
           (Printf.sprintf "%d-controlled %s requires ancilla decomposition"
              (List.length cs) name))
    else raise (Unsupported "multi-controlled general unitary")

(* The angles of an fsim matrix ([Gate.fsim]): θ from its middle block
   (cos θ, -i sin θ), φ from its last entry e^{-iφ}. [None] when the
   matrix is not of that form. *)
let fsim_angles (m : Gate.two) =
  let theta = atan2 (-.m.(1).(2).Cnum.im) m.(1).(1).Cnum.re in
  let phi = -.Cnum.arg m.(3).(3) in
  if Gate.equal m (Gate.fsim theta phi) then Some (theta, phi) else None

let op_to_qasm (op : Circuit.op) =
  match op with
  | Circuit.Single { name; matrix; target; controls } ->
    single_stmt name matrix target controls
  | Circuit.Two { name = "iswap"; matrix; q_hi; q_lo } when Gate.equal matrix Gate.iswap ->
    Printf.sprintf "iswap_m %s,%s;" (q q_hi) (q q_lo)
  | Circuit.Two { name; matrix; q_hi; q_lo } ->
    (match fsim_angles matrix with
     | Some (theta, phi) when name = "fsim" ->
       Printf.sprintf "fsim_m(%s,%s) %s,%s;" (f theta) (f phi) (q q_hi) (q q_lo)
     | _ -> raise (Unsupported (Printf.sprintf "two-qubit gate %s" name)))

let uses name c =
  Array.exists
    (function Circuit.Two { name = n; _ } -> n = name | Circuit.Single _ -> false)
    c.Circuit.ops

let iswap_macro =
  (* iswap = (S⊗S)·(H⊗I)·CX(hi,lo)·CX(lo,hi)·(I⊗H)  — standard identity,
     spelled with qelib1 gates on (a = high bit of the pair, b = low). *)
  "gate iswap_m a,b { s a; s b; h a; cx a,b; cx b,a; h b; }"

let fsim_macro =
  (* fsim(θ,φ) = exp(-iθ(XX+YY)/2)·cu1(-φ): XX and YY commute, and each
     rotation is the ZZ rotation (cx; rz(θ); cx) conjugated by H⊗H,
     respectively by (S·H)⊗(S·H). Every factor is symmetric in a and b. *)
  "gate fsim_m(theta,phi) a,b { h a; h b; cx a,b; rz(theta) b; cx a,b; h a; h b; \
   sdg a; sdg b; h a; h b; cx a,b; rz(theta) b; cx a,b; h a; h b; s a; s b; \
   cu1(-phi) a,b; }"

let to_string (c : Circuit.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "OPENQASM 2.0;\n";
  Buffer.add_string buf "include \"qelib1.inc\";\n";
  List.iter
    (fun (name, macro) ->
       if uses name c then begin
         Buffer.add_string buf macro;
         Buffer.add_char buf '\n'
       end)
    [ ("iswap", iswap_macro); ("fsim", fsim_macro) ];
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" c.Circuit.n);
  Array.iter
    (fun op ->
       Buffer.add_string buf (op_to_qasm op);
       Buffer.add_char buf '\n')
    c.Circuit.ops;
  Buffer.contents buf

(* The text is rendered before the file is opened, so an unsupported
   gate leaves no file behind. *)
let to_file path c =
  let text = to_string c in
  Out_channel.with_open_text path (fun oc -> output_string oc text)
