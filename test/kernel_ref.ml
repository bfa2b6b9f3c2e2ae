(* Pure-OCaml reference kernels: the flat-phase loops as they were written
   before they moved into C (lib/complexnum/kernels_stubs.c), kept only
   as the oracle test_kernels pins the stubs against, bit for bit, at
   both precisions.

   Every loop goes through [P]'s unboxed element accessors, so loads
   widen to double, arithmetic runs in double and stores round — the
   contract the stubs must reproduce term for term. The DMAV kernels run
   the pool's task lists one worker after another: each worker writes
   only its own blocks, so the serial order gives the parallel result. *)

module Make (P : Storage.S) = struct
  (* --- stripe primitives ---------------------------------------------- *)

  let scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim =
    for k = 0 to len - 1 do
      let re = P.get_re src (src_pos + k) and im = P.get_im src (src_pos + k) in
      P.set2 dst (dst_pos + k) ((sre *. re) -. (sim *. im)) ((sre *. im) +. (sim *. re))
    done

  let scale2_add_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim =
    for k = 0 to len - 1 do
      let re = P.get_re src (src_pos + k) and im = P.get_im src (src_pos + k) in
      let i = dst_pos + k in
      P.set2 dst i
        (P.get_re dst i +. ((sre *. re) -. (sim *. im)))
        (P.get_im dst i +. ((sre *. im) +. (sim *. re)))
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

  let two ~n amps (m : Gate.two) ~q_hi ~q_lo =
    let k_min = Int.min q_hi q_lo and k_max = Int.max q_hi q_lo in
    let are = Array.make 4 0.0 and aim = Array.make 4 0.0 in
    let idx = Array.make 4 0 in
    for k = 0 to (1 lsl (n - 2)) - 1 do
      let base = Bits.insert_bit2 k k_min 0 k_max 0 in
      idx.(0) <- base;
      idx.(1) <- base lor (1 lsl q_lo);
      idx.(2) <- base lor (1 lsl q_hi);
      idx.(3) <- base lor (1 lsl q_hi) lor (1 lsl q_lo);
      for r = 0 to 3 do
        are.(r) <- P.get_re amps idx.(r);
        aim.(r) <- P.get_im amps idx.(r)
      done;
      for r = 0 to 3 do
        let accre = ref 0.0 and accim = ref 0.0 in
        for c = 0 to 3 do
          let ure = m.(r).(c).Cnum.re and uim = m.(r).(c).Cnum.im in
          accre := !accre +. ((ure *. are.(c)) -. (uim *. aim.(c)));
          accim := !accim +. ((ure *. aim.(c)) +. (uim *. are.(c)))
        done;
        P.set2 amps idx.(r) !accre !accim
      done
    done

  (* --- DMAV ------------------------------------------------------------ *)

  let mac (mv : Dd.view) e v w iv iw fre fim =
    let wid = Dd.edge_wid e in
    let er = mv.Dd.re.(wid) and ei = mv.Dd.im.(wid) in
    let gre = (fre *. er) -. (fim *. ei) in
    let gim = (fre *. ei) +. (fim *. er) in
    P.madd2 w iw ~wre:gre ~wim:gim ~xre:(P.get_re v iv) ~xim:(P.get_im v iv)

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
    else if node = 0 then
      P.madd2 w iw ~wre:fre ~wim:fim ~xre:(P.get_re v iv) ~xim:(P.get_im v iv)
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
    let tasks = Cost.assign p ~n ~t Cost.Row_major root in
    let mv = Dd.mview p in
    fill_zero_range w ~pos:0 ~len:(P.length w);
    Array.iteri
      (fun u ts -> List.iter (fun (task : Cost.task) -> run_task mv task v w task.start (u * h)) ts)
      tasks

  (* Algorithm 2 over [threads] workers; returns the cache hits. *)
  let apply_cache p ~threads ~n root ~v ~w =
    let t = Cost.pow2_threads ~n threads in
    let h = (1 lsl n) / t in
    let tasks = Cost.assign p ~n ~t Cost.Column_major root in
    let mv = Dd.mview p in
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
