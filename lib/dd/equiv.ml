type verdict =
  | Equivalent
  | Equivalent_up_to_phase of Cnum.t
  | Not_equivalent

let structural_identity p ~n e =
  if Dd.medge_is_zero e then Not_equivalent
  else begin
    (* Walk the diagonal: each level must look like [sub 0; 0 sub]. *)
    let rec walk (node : Dd.mnode) level =
      if level < 0 then node = Dd.mterminal
      else if node = Dd.mterminal then false
      else begin
        let e00 = Dd.mchild p node 0 0
        and e01 = Dd.mchild p node 0 1
        and e10 = Dd.mchild p node 1 0
        and e11 = Dd.mchild p node 1 1 in
        Dd.medge_is_zero e01
        && Dd.medge_is_zero e10
        && (not (Dd.medge_is_zero e00))
        && (not (Dd.medge_is_zero e11))
        && Dd.mtgt e00 = Dd.mtgt e11
        && Cnum.equal (Dd.mw p e00) (Dd.mw p e11)
        (* Canonical normalization makes the diagonal weights 1 when the
           matrix is a scalar multiple of the identity. *)
        && Cnum.is_one (Dd.mw p e00)
        && walk (Dd.mtgt e00) (level - 1)
      end
    in
    if not (walk (Dd.mtgt e) (n - 1)) then Not_equivalent
    else if Cnum.is_one (Dd.mw p e) then Equivalent
    else if Float.abs (Cnum.norm (Dd.mw p e) -. 1.0) < 1e-9 then
      Equivalent_up_to_phase (Dd.mw p e)
    else Not_equivalent
  end

let check ?package c1 c2 =
  if c1.Circuit.n <> c2.Circuit.n then
    invalid_arg "Equiv.check: circuits have different widths";
  let p = match package with Some p -> p | None -> Dd.create () in
  let n = c1.Circuit.n in
  (* Build U2† · U1 as one rolling product (apply c1's gates, then c2's
     inverse): when the circuits really are equivalent the accumulated DD
     stays near the identity, which is what keeps this cheap. *)
  let acc = ref (Mat_dd.identity p n) in
  Array.iter (fun op -> acc := Dd.mm p (Mat_dd.of_op p ~n op) !acc) c1.Circuit.ops;
  Array.iter
    (fun op -> acc := Dd.mm p (Mat_dd.of_op p ~n op) !acc)
    (Circuit.adjoint c2).Circuit.ops;
  structural_identity p ~n !acc
