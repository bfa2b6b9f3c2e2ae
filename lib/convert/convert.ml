type stats = {
  tasks : int;
  fills : int;
  filled_amplitudes : int;
}

(* Conversion happens at most once per simulation, so per-run counter
   updates are free; only the split phase counts nodes (the DFS conversion
   itself touches every nonzero amplitude and stays uninstrumented). *)
let c_runs = Obs.counter "convert.runs"
let c_seq_runs = Obs.counter "convert.sequential_runs"
let c_tasks = Obs.counter "convert.tasks"
let c_fills = Obs.counter "convert.fills"
let c_filled = Obs.counter "convert.filled_amplitudes"
let c_split_nodes = Obs.counter "convert.split_nodes_visited"
let s_convert = Obs.span "convert.span"

(* Both conversions run one walk, [Storage.convert]: a C call over the
   package's raw vector arena view (packed child edges, weight planes),
   allocating nothing. The sequential one is [Vec_dd.to_buf], the walk
   from the root with fills off. The view stays valid for the whole
   conversion because nothing allocates DD nodes or interns weights
   here. *)

let sequential p ~n (e : Dd.vedge) =
  Obs.incr c_seq_runs;
  Vec_dd.to_buf p n e

(* A DFS task converts the sub-tree under [node] (incoming weight already
   folded into [weight]) into [buf] starting at [offset]. A fill derives
   [len] amplitudes at [dst] by scaling the block at [src]. *)
type task = { t_node : Dd.vnode; t_offset : int; t_weight : Cnum.t }
type fill = { f_src : int; f_dst : int; f_len : int; f_factor : Cnum.t; f_level : int }

let parallel p ~pool ~n (e : Dd.vedge) =
  Obs.with_span s_convert @@ fun () ->
  let buf = Buf.create (1 lsl n) in
  let threads = Pool.size pool in
  let tasks : task list ref = ref [] in
  let fills : fill list ref = ref [] in
  let n_tasks = ref 0 in
  let split_nodes = ref 0 in
  let target_tasks = Int.max 1 (4 * threads) in
  (* A task's walk is one [@@noalloc] C call, during which its domain
     holds up every stop-the-world minor collection: a node above level
     [task_level] (2^(task_level+1) amplitudes) is split further even
     when the budget is spent, as [Dense_kernel.stripe_max] cuts a dense
     gate. The split depth does not change the bytes. *)
  let task_level = 15 in
  (* Phase 1 — split the DD into sub-tree tasks. Zero edges are never
     descended into (load balancing) and identical children become fills
     (scalar multiplication), exactly the two cases of Figure 4. *)
  let rec split (node : Dd.vnode) offset weight budget =
    incr split_nodes;
    if node = Dd.vterminal then begin
      tasks := { t_node = node; t_offset = offset; t_weight = weight } :: !tasks;
      incr n_tasks
    end
    else if budget <= 1 && Dd.vlevel p node <= task_level then begin
      tasks := { t_node = node; t_offset = offset; t_weight = weight } :: !tasks;
      incr n_tasks
    end
    else begin
      let half = 1 lsl Dd.vlevel p node in
      let e0 = Dd.v0 p node and e1 = Dd.v1 p node in
      match Dd.vedge_is_zero e0, Dd.vedge_is_zero e1 with
      | true, true -> ()
      | false, true ->
        split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) budget
      | true, false ->
        split (Dd.vtgt e1) (offset + half) (Cnum.mul weight (Dd.vw p e1)) budget
      | false, false ->
        if Dd.vtgt e0 = Dd.vtgt e1 then begin
          (* High half = (w1/w0) × low half: convert only the low half and
             record a fill at this node's level. *)
          fills :=
            { f_src = offset;
              f_dst = offset + half;
              f_len = half;
              f_factor = Cnum.div (Dd.vw p e1) (Dd.vw p e0);
              f_level = Dd.vlevel p node }
            :: !fills;
          split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) budget
        end
        else begin
          let b0 = budget / 2 in
          split (Dd.vtgt e0) offset (Cnum.mul weight (Dd.vw p e0)) b0;
          split (Dd.vtgt e1) (offset + half)
            (Cnum.mul weight (Dd.vw p e1))
            (budget - b0)
        end
    end
  in
  if not (Dd.vedge_is_zero e) then split (Dd.vtgt e) 0 (Dd.vw p e) target_tasks;
  (* Phase 2 — the walk of each task, drained over the pool. Within a
     task the identical-children case is still taken sequentially
     (convert the low half, block-scale the high half). Workers share the
     view read-only. *)
  let task_array = Array.of_list !tasks in
  let v = Dd.vview p in
  (* A small state runs its tasks and fills on the caller: below
     [Dense_kernel.seq_threshold] amplitude pairs, as for a gate, waking
     the pool's parked domains costs more than the walk. The tasks and
     fills, and so the bytes, are the same. *)
  let on_caller = Pool.size pool = 1 || 1 lsl n < 2 * Dense_kernel.seq_threshold in
  let ranges ~chunk ~hi f =
    if on_caller then f 0 hi else Pool.parallel_for_ranges ~chunk pool ~lo:0 ~hi f
  in
  ranges ~chunk:1 ~hi:(Array.length task_array) (fun lo hi ->
      for i = lo to hi - 1 do
        let t = task_array.(i) in
        Storage.convert v ~node:(Dd.vid t.t_node) buf ~pos:t.t_offset ~wre:t.t_weight.Cnum.re
          ~wim:t.t_weight.Cnum.im ~fills:true
      done);
  (* Phase 3 — execute the recorded fills, lowest level first (a fill at
     level l reads only amplitudes produced below level l). Each fill is
     chunked so one huge top-level fill still uses every worker. *)
  let fill_list = List.sort (fun a b -> compare a.f_level b.f_level) !fills in
  let filled = ref 0 in
  List.iter
    (fun f ->
       filled := !filled + f.f_len;
       let chunk = Int.max 4096 (f.f_len / (4 * threads)) in
       ranges ~chunk ~hi:f.f_len (fun a b ->
           Buf.scale_into ~src:buf ~src_pos:(f.f_src + a) ~dst:buf
             ~dst_pos:(f.f_dst + a) ~len:(b - a) f.f_factor))
    fill_list;
  if Obs.enabled () then begin
    Obs.incr c_runs;
    Obs.add c_tasks (Array.length task_array);
    Obs.add c_fills (List.length fill_list);
    Obs.add c_filled !filled;
    Obs.add c_split_nodes !split_nodes
  end;
  ( buf,
    { tasks = Array.length task_array;
      fills = List.length fill_list;
      filled_amplitudes = !filled } )
