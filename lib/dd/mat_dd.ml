(* [identity_chain p n l] is the identity over levels [0, l). Each level
   is interned once, on the first call that reaches it, so a gate pays
   one [make_mnode] per identity level. Rebuilding the chain from level 0
   on every call would create the same nodes in the same order (the
   repeats are unique-table hits); slot order decides where compute-cache
   entries land, and so the output bytes. *)
let identity_chain p n =
  let ids = Array.make (n + 1) Dd.mone and built = ref 0 in
  fun l ->
    while !built < l do
      let k = !built in
      ids.(k + 1) <- Dd.make_mnode p k ids.(k) Dd.mzero Dd.mzero ids.(k);
      incr built
    done;
    ids.(l)

let identity p n =
  if n < 1 then invalid_arg "Mat_dd.identity";
  identity_chain p n n

let of_single p ~n ~target ~controls (u : Gate.single) =
  if target < 0 || target >= n then invalid_arg "Mat_dd.of_single: bad target";
  List.iter
    (fun c ->
       if c < 0 || c >= n || c = target then invalid_arg "Mat_dd.of_single: bad control")
    controls;
  let is_control l = List.mem l controls in
  (* Below the target, track the four blocks U_ij independently: a control
     level keeps the identity on its 0-branch only for diagonal blocks; a
     plain level extends each block diagonally. *)
  let em = Array.init 2 (fun i ->
      Array.init 2 (fun j ->
          let w = u.(i).(j) in
          if Cnum.is_zero w then Dd.mzero else Dd.mterm_edge p w))
  in
  let identity_below = identity_chain p n in
  for l = 0 to target - 1 do
    (* Extended at every level, control or not, to keep node order. *)
    let ident = identity_below l in
    for i = 0 to 1 do
      for j = 0 to 1 do
        let low =
          if is_control l then (if i = j then ident else Dd.mzero)
          else em.(i).(j)
        in
        em.(i).(j) <- Dd.make_mnode p l low Dd.mzero Dd.mzero em.(i).(j)
      done
    done
  done;
  let e = ref (Dd.make_mnode p target em.(0).(0) em.(0).(1) em.(1).(0) em.(1).(1)) in
  for l = target + 1 to n - 1 do
    if is_control l then
      e := Dd.make_mnode p l (identity_below l) Dd.mzero Dd.mzero !e
    else e := Dd.make_mnode p l !e Dd.mzero Dd.mzero !e
  done;
  !e

let of_two p ~n ~q_hi ~q_lo (u : Gate.two) =
  if q_hi = q_lo || q_hi < 0 || q_lo < 0 || q_hi >= n || q_lo >= n then
    invalid_arg "Mat_dd.of_two: bad qubits";
  let lo_level = Int.min q_hi q_lo and hi_level = Int.max q_hi q_lo in
  (* Matrix index bit for the level: q_hi carries the 2s bit of the 4×4
     index, q_lo the 1s bit — regardless of which level is higher. *)
  let entry ih il jh jl =
    let w = u.((2 * ih) + il).((2 * jh) + jl) in
    if Cnum.is_zero w then Dd.mzero else Dd.mterm_edge p w
  in
  (* A scalar extended up through the identity levels below lo_level is
     the scalar times the identity there: the node at each level
     normalizes by w, and w/w is exactly one. Scaling the identity edge
     re-interns w, which finds w's own id. *)
  let identity_below = identity_chain p n in
  let scalar_to_level (le : Dd.medge) =
    if lo_level = 0 || Dd.medge_is_zero le then le
    else Dd.mscale p (identity_below lo_level) (Dd.mw p le)
  in
  (* Blocks over (bit at hi_level of row, of col): each is a 2×2 matrix in
     the lo_level bit. *)
  let block bi bj =
    let pick ri ci =
      if hi_level = q_hi then entry bi ri bj ci else entry ri bi ci bj
    in
    let e00 = pick 0 0 and e01 = pick 0 1 and e10 = pick 1 0 and e11 = pick 1 1 in
    Dd.make_mnode p lo_level
      (scalar_to_level e00) (scalar_to_level e01)
      (scalar_to_level e10) (scalar_to_level e11)
  in
  let b00 = block 0 0 and b01 = block 0 1 and b10 = block 1 0 and b11 = block 1 1 in
  (* Identity levels strictly between the two qubits. *)
  let lift e =
    let rec up l (e : Dd.medge) =
      if l = hi_level then e
      else if Dd.medge_is_zero e then Dd.mzero
      else up (l + 1) (Dd.make_mnode p l e Dd.mzero Dd.mzero e)
    in
    up (lo_level + 1) e
  in
  let e =
    ref (Dd.make_mnode p hi_level (lift b00) (lift b01) (lift b10) (lift b11))
  in
  for l = hi_level + 1 to n - 1 do
    e := Dd.make_mnode p l !e Dd.mzero Dd.mzero !e
  done;
  !e

let of_op p ~n (op : Circuit.op) =
  match op with
  | Circuit.Single { matrix; target; controls; _ } ->
    of_single p ~n ~target ~controls matrix
  | Circuit.Two { matrix; q_hi; q_lo; _ } -> of_two p ~n ~q_hi ~q_lo matrix

let to_dense p ~n e =
  let d = 1 lsl n in
  Array.init d (fun r -> Array.init d (fun c -> Dd.mentry p e r c))

let is_identity ?(tol = 1e-9) p ~n e =
  let d = 1 lsl n in
  let ok = ref true in
  for r = 0 to d - 1 do
    for c = 0 to d - 1 do
      let expect = if r = c then Cnum.one else Cnum.zero in
      if not (Cnum.equal ~tol (Dd.mentry p e r c) expect) then ok := false
    done
  done;
  !ok
