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
  (* One DFS over the raw arena view, multiplying packed-edge weights down
     each path with [Cnum.mul]'s expression, term for term. Zero edges (the
     packed int 0) leave the pre-zeroed buffer untouched. The view stays
     valid because nothing allocates DD nodes or interns weights here. *)
  let v = Dd.vview p in
  let rec walk (e : int) offset wre wim =
    if e <> 0 then begin
      let wid = Dd.edge_wid e in
      let er = v.Dd.re.(wid) and ei = v.Dd.im.(wid) in
      let wre' = (wre *. er) -. (wim *. ei)
      and wim' = (wre *. ei) +. (wim *. er) in
      let node = Dd.edge_tgt e in
      if node = 0 then Buf.set2 buf offset wre' wim'
      else begin
        walk v.Dd.ch.(2 * node) offset wre' wim';
        walk v.Dd.ch.((2 * node) + 1)
          (offset + (1 lsl v.Dd.lv.(node)))
          wre' wim'
      end
    end
  in
  walk (e :> int) 0 1.0 0.0;
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
