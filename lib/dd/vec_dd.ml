let zero_state p n =
  if n < 1 then invalid_arg "Vec_dd.zero_state";
  let rec build l below =
    if l = n then below
    else build (l + 1) (Dd.make_vnode p l below Dd.vzero)
  in
  build 0 Dd.vone

let basis_state p n i =
  if n < 1 || i < 0 || i >= 1 lsl n then invalid_arg "Vec_dd.basis_state";
  let rec build l below =
    if l = n then below
    else
      let e =
        if Bits.bit i l = 0 then Dd.make_vnode p l below Dd.vzero
        else Dd.make_vnode p l Dd.vzero below
      in
      build (l + 1) e
  in
  build 0 Dd.vone

let of_buf p buf =
  let len = Buf.length buf in
  if not (Bits.is_pow2 len) then invalid_arg "Vec_dd.of_buf: length not a power of two";
  let n = Bits.log2_exact len in
  let rec build l offset =
    if l < 0 then
      let a = Buf.get buf offset in
      if Cnum.is_zero a then Dd.vzero else Dd.vterm_edge p a
    else
      let e0 = build (l - 1) offset in
      let e1 = build (l - 1) (offset + (1 lsl l)) in
      Dd.make_vnode p l e0 e1
  in
  build (n - 1) 0

let to_buf p n (e : Dd.vedge) =
  let buf = Buf.create (1 lsl n) in
  (* The conversion walk with fills off: every amplitude its path's
     weight product, the root edge's weight times 1 first. A zero edge
     (the packed int 0) leaves the zeroed buffer as it is. The view stays
     valid because nothing allocates DD nodes or interns weights here. *)
  let e = (e :> int) in
  if e <> 0 then begin
    let v = Dd.vview p in
    let wid = Dd.edge_wid e in
    let er = v.Dd.re.(wid) and ei = v.Dd.im.(wid) in
    Storage.convert v ~node:(Dd.edge_tgt e) buf ~pos:0
      ~wre:((1.0 *. er) -. (0.0 *. ei))
      ~wim:((1.0 *. ei) +. (0.0 *. er))
      ~fills:false
  end;
  buf

let norm2 p e =
  (* Memoize per node: Σ|amp|² of the sub-vector with unit incoming
     weight; an incoming weight w scales it by |w|². *)
  let memo : (int, float) Hashtbl.t = Hashtbl.create 256 in
  let rec node_norm (n : Dd.vnode) =
    if n = Dd.vterminal then 1.0
    else
      match Hashtbl.find_opt memo (Dd.vid n) with
      | Some v -> v
      | None ->
        let contrib (e : Dd.vedge) =
          if Dd.vedge_is_zero e then 0.0
          else Cnum.norm2 (Dd.vw p e) *. node_norm (Dd.vtgt e)
        in
        let v = contrib (Dd.v0 p n) +. contrib (Dd.v1 p n) in
        Hashtbl.add memo (Dd.vid n) v;
        v
  in
  if Dd.vedge_is_zero e then 0.0
  else Cnum.norm2 (Dd.vw p e) *. node_norm (Dd.vtgt e)
