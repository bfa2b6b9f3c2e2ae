(* Pure-OCaml reference kernels: the flat-phase loops and the DD→array
   conversion as they were written before they moved into C
   (lib/complexnum/kernels_stubs.c), kept only as the oracles
   test_kernels and test_convert pin the stubs against, bit for bit, at
   both precisions.

   Every loop goes through [P]'s unboxed element accessors, so loads
   widen to double, arithmetic runs in double and stores round — the
   contract the stubs must reproduce term for term. The DMAV kernels run
   the pool's task lists one worker after another: each worker writes
   only its own blocks, so the serial order gives the parallel result. *)

(* Algorithm 1's Assign as the paper gives it, the reference of the
   compiled Run programs' task lists: walk the top log₂ t levels; the
   thread index follows the row bit i, the V offset the column bit j,
   and the outer loop runs over i. *)
let assign_rows p ~n ~t (root : Dd.medge) =
  let border = n - Bits.log2_exact t - 1 in
  let tasks = Array.make t [] in
  let rec go e f u start l =
    if not (Dd.medge_is_zero e) then begin
      let f = Cnum.mul f (Dd.mw p e) in
      if l = border then tasks.(u) <- { Cost.node = Dd.mtgt e; start; weight = f } :: tasks.(u)
      else
        for i = 0 to 1 do
          for j = 0 to 1 do
            go (Dd.medge_child p e i j) f
              (u + (i * (t / (1 lsl (n - l)))))
              (start + (j * (1 lsl l)))
              (l - 1)
          done
        done
    end
  in
  go root Cnum.one 0 0 (n - 1);
  Array.map List.rev tasks

(* The DD→array conversion as it was written in OCaml before its walk
   moved into C ([Storage.convert]), the reference test_convert pins
   both converters against bit for bit: [to_buf] is [Vec_dd.to_buf]'s
   path-product walk, [convert] [Convert.parallel] with its per-task DFS
   (fills inline, in the task) and its own split, which never splits
   past the task budget. *)
let to_buf p n (e : Dd.vedge) =
  let buf = Buf.create (1 lsl n) in
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
        walk v.Dd.ch.((2 * node) + 1) (offset + (1 lsl v.Dd.lv.(node))) wre' wim'
      end
    end
  in
  walk (e :> int) 0 1.0 0.0;
  buf

let convert p ~pool ~n (e : Dd.vedge) =
  let buf = Buf.create (1 lsl n) in
  let threads = Pool.size pool in
  let tasks = ref [] and fills = ref [] in
  let rec split (node : Dd.vnode) offset (weight : Cnum.t) budget =
    if node = Dd.vterminal || budget <= 1 then tasks := (node, offset, weight) :: !tasks
    else begin
      let half = 1 lsl Dd.vlevel p node in
      let e0 = Dd.v0 p node and e1 = Dd.v1 p node in
      match Dd.vedge_is_zero e0, Dd.vedge_is_zero e1 with
      | true, true -> ()
      | false, true -> split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) budget
      | true, false ->
        split (Dd.vtgt e1) (offset + half) (Cnum.mul weight (Dd.vw p e1)) budget
      | false, false ->
        if Dd.vtgt e0 = Dd.vtgt e1 then begin
          fills :=
            (Dd.vlevel p node, offset, half, Cnum.div (Dd.vw p e1) (Dd.vw p e0)) :: !fills;
          split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) budget
        end
        else begin
          let b0 = budget / 2 in
          split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) b0;
          split (Dd.vtgt e1) (offset + half) (Cnum.mul weight (Dd.vw p e1)) (budget - b0)
        end
    end
  in
  if not (Dd.vedge_is_zero e) then split (Dd.vtgt e) 0 (Dd.vw p e) (Int.max 1 (4 * threads));
  let v = Dd.vview p in
  let rec walk (node : int) offset wre wim =
    if node = 0 then Buf.set2 buf offset wre wim
    else begin
      let half = 1 lsl v.Dd.lv.(node) in
      let e0 = v.Dd.ch.(2 * node) and e1 = v.Dd.ch.((2 * node) + 1) in
      let descend (e : int) offset =
        let wid = Dd.edge_wid e in
        let er = v.Dd.re.(wid) and ei = v.Dd.im.(wid) in
        walk (Dd.edge_tgt e) offset ((wre *. er) -. (wim *. ei)) ((wre *. ei) +. (wim *. er))
      in
      if e0 <> 0 && e1 <> 0 && Dd.edge_tgt e0 = Dd.edge_tgt e1 then begin
        descend e0 offset;
        let w0 = Dd.edge_wid e0 and w1 = Dd.edge_wid e1 in
        let bre = v.Dd.re.(w0) and bim = v.Dd.im.(w0) in
        let are = v.Dd.re.(w1) and aim = v.Dd.im.(w1) in
        let d = (bre *. bre) +. (bim *. bim) in
        let sre = ((are *. bre) +. (aim *. bim)) /. d
        and sim = ((aim *. bre) -. (are *. bim)) /. d in
        for k = 0 to half - 1 do
          let re = Buf.get_re buf (offset + k) and im = Buf.get_im buf (offset + k) in
          Buf.set2 buf (offset + half + k) ((sre *. re) -. (sim *. im)) ((sre *. im) +. (sim *. re))
        done
      end
      else begin
        if e0 <> 0 then descend e0 offset;
        if e1 <> 0 then descend e1 (offset + half)
      end
    end
  in
  List.iter
    (fun ((node : Dd.vnode), offset, (w : Cnum.t)) -> walk (Dd.vid node) offset w.re w.im)
    (List.rev !tasks);
  List.iter
    (fun (_, src, len, (s : Cnum.t)) ->
       for k = 0 to len - 1 do
         let re = Buf.get_re buf (src + k) and im = Buf.get_im buf (src + k) in
         Buf.set2 buf (src + len + k) ((s.re *. re) -. (s.im *. im)) ((s.re *. im) +. (s.im *. re))
       done)
    (List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) !fills);
  buf

module Make (P : Storage.S) = struct
  (* --- stripe primitives ---------------------------------------------- *)

  let scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim =
    for k = 0 to len - 1 do
      let re = P.get_re src (src_pos + k) and im = P.get_im src (src_pos + k) in
      P.set2 dst (dst_pos + k) ((sre *. re) -. (sim *. im)) ((sre *. im) +. (sim *. re))
    done

  let add_into ~src ~src_pos ~dst ~dst_pos ~len =
    for k = 0 to len - 1 do
      let i = dst_pos + k and j = src_pos + k in
      P.set2 dst i (P.get_re dst i +. P.get_re src j) (P.get_im dst i +. P.get_im src j)
    done

  let fill_zero_range t ~pos ~len =
    for k = pos to pos + len - 1 do
      P.set2 t k 0.0 0.0
    done

  let norm2 t =
    let acc = ref 0.0 in
    for i = 0 to P.length t - 1 do
      let re = P.get_re t i in
      acc := !acc +. (re *. re);
      let im = P.get_im t i in
      acc := !acc +. (im *. im)
    done;
    !acc

  (* --- dense kernels --------------------------------------------------- *)

  let single ~n amps (m : Gate.single) ~target ~controls =
    let cmask = Bits.all_masks controls in
    let m00 = m.(0).(0) and m01 = m.(0).(1) and m10 = m.(1).(0) and m11 = m.(1).(1) in
    let u00re = m00.Cnum.re and u00im = m00.Cnum.im in
    let u01re = m01.Cnum.re and u01im = m01.Cnum.im in
    let u10re = m10.Cnum.re and u10im = m10.Cnum.im in
    let u11re = m11.Cnum.re and u11im = m11.Cnum.im in
    for k = 0 to (1 lsl (n - 1)) - 1 do
      let i0 = Bits.insert_bit k target 0 in
      if i0 land cmask = cmask then begin
        let i1 = i0 lor (1 lsl target) in
        let a0re = P.get_re amps i0 and a0im = P.get_im amps i0 in
        let a1re = P.get_re amps i1 and a1im = P.get_im amps i1 in
        P.set2 amps i0
          ((u00re *. a0re) -. (u00im *. a0im) +. (u01re *. a1re) -. (u01im *. a1im))
          ((u00re *. a0im) +. (u00im *. a0re) +. (u01re *. a1im) +. (u01im *. a1re));
        P.set2 amps i1
          ((u10re *. a0re) -. (u10im *. a0im) +. (u11re *. a1re) -. (u11im *. a1im))
          ((u10re *. a0im) +. (u10im *. a0re) +. (u11re *. a1im) +. (u11im *. a1re))
      end
    done

  (* The local leg's walk ([P.local_apply]): the [2^s × 2^s] matrix [u]
     (row-major re/im; [s] = 1 when [major] is 0, else 2) on the bits
     [major] (index bit 1) and [minor] (index bit 0), in place on every
     group of amplitudes whose [major] and [minor] bits are 0 and whose
     [cmask] bits are all 1; every other amplitude stays. Each output
     starts from +0 and adds [u(r, c)·x(c)] for each [c], ascending,
     whose bit [r·2^s + c] is set in [paths], in double; the sum is
     stored to [P] once, rounding at f32. The dense two-qubit kernel is
     this walk with all 16 paths and no controls, [major] its [q_hi]. *)
  let local ~n amps (u : float array) ~major ~minor ~cmask ~paths =
    let d = if major = 0 then 2 else 4 in
    let xre = Array.make d 0.0 and xim = Array.make d 0.0 and idx = Array.make d 0 in
    for base = 0 to (1 lsl n) - 1 do
      if base land (major lor minor) = 0 && base land cmask = cmask then begin
        for c = 0 to d - 1 do
          idx.(c) <- base lor (if c land 1 = 1 then minor else 0) lor (if c land 2 = 2 then major else 0);
          xre.(c) <- P.get_re amps idx.(c);
          xim.(c) <- P.get_im amps idx.(c)
        done;
        for r = 0 to d - 1 do
          let accre = ref 0.0 and accim = ref 0.0 in
          for c = 0 to d - 1 do
            if (paths lsr ((r * d) + c)) land 1 = 1 then begin
              let ure = u.(2 * ((r * d) + c)) and uim = u.((2 * ((r * d) + c)) + 1) in
              accre := !accre +. ((ure *. xre.(c)) -. (uim *. xim.(c)));
              accim := !accim +. ((ure *. xim.(c)) +. (uim *. xre.(c)))
            end
          done;
          P.set2 amps idx.(r) !accre !accim
        done
      end
    done

  (* --- DMAV ------------------------------------------------------------ *)

  (* One MAC, w(iw) += g·v(iv), as the Run stub rounds it: the product
     in double, one add per part, one store. *)
  let madd w iw gre gim v iv =
    let xre = P.get_re v iv and xim = P.get_im v iv in
    P.set2 w iw
      (P.get_re w iw +. ((gre *. xre) -. (gim *. xim)))
      (P.get_im w iw +. ((gre *. xim) +. (gim *. xre)))

  let mac (mv : Dd.view) e v w iv iw fre fim =
    let wid = Dd.edge_wid e in
    let er = mv.Dd.re.(wid) and ei = mv.Dd.im.(wid) in
    madd w iw ((fre *. er) -. (fim *. ei)) ((fre *. ei) +. (fim *. er)) v iv

  let rec run_node (mv : Dd.view) node v w iv iw fre fim =
    let base = 4 * node in
    let e00 = mv.Dd.ch.(base) and e01 = mv.Dd.ch.(base + 1) in
    let e10 = mv.Dd.ch.(base + 2) and e11 = mv.Dd.ch.(base + 3) in
    if mv.Dd.lv.(node) = 0 then begin
      if e00 <> 0 then mac mv e00 v w iv iw fre fim;
      if e01 <> 0 then mac mv e01 v w (iv + 1) iw fre fim;
      if e10 <> 0 then mac mv e10 v w iv (iw + 1) fre fim;
      if e11 <> 0 then mac mv e11 v w (iv + 1) (iw + 1) fre fim
    end
    else if node = 0 then madd w iw fre fim v iv
    else begin
      let half = 1 lsl mv.Dd.lv.(node) in
      let descend e iv iw =
        let wid = Dd.edge_wid e in
        let er = mv.Dd.re.(wid) and ei = mv.Dd.im.(wid) in
        run_node mv (Dd.edge_tgt e) v w iv iw
          ((fre *. er) -. (fim *. ei))
          ((fre *. ei) +. (fim *. er))
      in
      if e00 <> 0 then descend e00 iv iw;
      if e01 <> 0 then descend e01 (iv + half) iw;
      if e10 <> 0 then descend e10 iv (iw + half);
      if e11 <> 0 then descend e11 (iv + half) (iw + half)
    end

  let run_task mv (task : Cost.task) v w iv iw =
    run_node mv (Dd.mid task.node) v w iv iw task.weight.Cnum.re task.weight.Cnum.im

  (* Algorithm 1 over [threads] workers. *)
  let apply_nocache p ~threads ~n root ~v ~w =
    let t = Cost.pow2_threads ~n threads in
    let h = (1 lsl n) / t in
    let tasks = assign_rows p ~n ~t root in
    let mv = Dd.Testing.mview p in
    fill_zero_range w ~pos:0 ~len:(P.length w);
    Array.iteri
      (fun u ts -> List.iter (fun (task : Cost.task) -> run_task mv task v w task.start (u * h)) ts)
      tasks

  (* Algorithm 2 over [threads] workers; returns the cache hits. *)
  let apply_cache p ~threads ~n root ~v ~w =
    let t = Cost.pow2_threads ~n threads in
    let h = (1 lsl n) / t in
    let tasks = Cost.assign p ~n ~t root in
    let mv = Dd.Testing.mview p in
    let blocks =
      Array.map (List.map (fun (task : Cost.task) -> task.start)) tasks
    in
    let v_b, n_buffers = Cost.allocate_buffers blocks in
    let bufs = Array.init n_buffers (fun _ -> P.create (1 lsl n)) in
    let occupied = Array.make n_buffers [] in
    Array.iteri
      (fun u blks ->
         let bi = v_b.(u) in
         List.iter
           (fun b -> if not (List.mem b occupied.(bi)) then occupied.(bi) <- b :: occupied.(bi))
           blks)
      blocks;
    let hits = ref 0 in
    Array.iteri
      (fun u ts ->
         let buf = bufs.(v_b.(u)) in
         let cache = Hashtbl.create 16 in
         List.iter
           (fun (task : Cost.task) ->
              match Hashtbl.find_opt cache (Dd.mid task.node) with
              | Some (f0, ip0) ->
                incr hits;
                let s = Cnum.div task.weight f0 in
                scale2_into ~src:buf ~src_pos:ip0 ~dst:buf ~dst_pos:task.start ~len:h
                  ~sre:s.Cnum.re ~sim:s.Cnum.im
              | None ->
                run_task mv task v buf (u * h) task.start;
                Hashtbl.replace cache (Dd.mid task.node) (task.weight, task.start))
           ts)
      tasks;
    let contributors = Array.make t [] in
    Array.iteri
      (fun bi blks ->
         List.iter (fun blk -> contributors.(blk / h) <- bi :: contributors.(blk / h)) blks)
      occupied;
    fill_zero_range w ~pos:0 ~len:(P.length w);
    Array.iteri
      (fun blk bis ->
         List.iter
           (fun bi ->
              add_into ~src:bufs.(bi) ~src_pos:(blk * h) ~dst:w ~dst_pos:(blk * h) ~len:h)
           bis)
      contributors;
    !hits
end
