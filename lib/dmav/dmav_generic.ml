(* DD-matrix × array-vector kernels over a storage kind [P : Storage.S] —
   the only DMAV kernels, for both precisions: [Dmav] is
   [Make (Storage.F64)], and the f32 flat engine instantiates it at
   [Storage.F32].

   The Assign traversals ([Cost.assign]) and the cache/buffer bookkeeping
   stay in OCaml; each border task's Run recursion is one call into the
   [P.dmav_run] C stub over the package's raw arena view, and cache hits,
   buffer zeroing and summation are one stripe-primitive call per block.
   W is zeroed inside the workers, one output stripe or block each.
   Weights always stay f64 — they come off the ctable planes — so at
   [F32] the only rounding happens on the stores. The view stays valid
   for the whole apply because nothing allocates DD nodes or interns
   weights inside the kernels.

   Instrumentation is per kernel invocation (one gate application), never
   per MAC. [Obs] instruments are registered by name and a repeated name
   returns the existing one, so every instance of [Make] feeds the same
   [dmav.*] counters and span: f64 and f32 gates are counted together. *)

type exec_stats = {
  used_cache : bool;
  decision : Cost.decision;
  cache_hits : int;
  buffers_used : int;
}

(* A free list of reusable 2ⁿ-sized buffers: the cached kernel's partial
   outputs and the flat engine's scratch vector. Polymorphic in the buffer
   so a workspace type can be named without applying [Make]. *)
type 'b workspace = { ws_n : int; mutable free : 'b list }

let workspace ~n = { ws_n = n; free = [] }

module Make (P : Storage.S) = struct
  let c_kernel_uncached = Obs.counter "dmav.kernel.uncached"
  let c_kernel_cached = Obs.counter "dmav.kernel.cached"
  let c_cache_hits = Obs.counter "dmav.cache.hits"
  let c_buffers = Obs.counter "dmav.buffers"
  let fc_macs_modeled = Obs.fcounter "dmav.macs.modeled"
  let fc_macs_modeled_cached = Obs.fcounter "dmav.macs.modeled_cached"
  let fc_macs_modeled_uncached = Obs.fcounter "dmav.macs.modeled_uncached"
  let fc_macs_modeled_identity = Obs.fcounter "dmav.macs.modeled_identity"
  let s_apply = Obs.span "dmav.apply"

  let run_task mv (task : Cost.task) ~v ~w ~iv ~iw =
    P.dmav_run mv ~node:(Dd.mid task.node) ~v ~w ~iv ~iw ~fre:task.weight.Cnum.re
      ~fim:task.weight.Cnum.im

  let apply_nocache p ~pool ~n root ~v ~w =
    if P.length v <> 1 lsl n || P.length w <> 1 lsl n then
      invalid_arg "Dmav.apply_nocache: buffer size mismatch";
    Obs.incr c_kernel_uncached;
    let t = Cost.pow2_threads ~n (Pool.size pool) in
    let h = (1 lsl n) / t in
    let tasks = Cost.assign p ~n ~t Cost.Row_major root in
    let mv = Dd.mview p in
    (* Check mode: each worker claims its W stripe on a region scoped to
       this kernel call, so a task-assignment bug that lands two domains
       on the same output rows is reported as a race. The worker zeroes
       its own stripe after the claim. *)
    let claim =
      if Check.enabled () then begin
        let r = Check.region ~name:("dmav." ^ P.label ^ ".w") in
        fun lo hi -> Check.claim r ~owner:(Domain.self () :> int) ~lo ~hi
      end
      else fun _ _ -> ()
    in
    Pool.run pool (fun u ->
        if u < t then begin
          claim (u * h) ((u + 1) * h);
          P.fill_zero_range w ~pos:(u * h) ~len:h;
          List.iter
            (fun (task : Cost.task) -> run_task mv task ~v ~w ~iv:task.start ~iw:(u * h))
            tasks.(u)
        end)

  type nonrec workspace = P.t workspace

  let workspace ~n : workspace = workspace ~n
  let workspace_n ws = ws.ws_n
  let free_buffers ws = List.length ws.free

  let take ws =
    match ws.free with
    | b :: rest ->
      ws.free <- rest;
      b
    | [] -> P.create (1 lsl ws.ws_n)

  let give ws b =
    if P.length b = 1 lsl ws.ws_n then begin
      if Check.enabled () && List.memq b ws.free then
        Check.violation "Dmav.give: buffer returned twice";
      ws.free <- b :: ws.free
    end

  let scrub_workspace ws =
    List.iter P.fill_zero ws.free;
    List.length ws.free

  let take_buffer ws n =
    match ws with
    | Some ws when ws.ws_n = n -> take ws
    | _ -> P.create (1 lsl n)

  let return_buffers ws bufs =
    match ws with
    | Some ws ->
      if Check.enabled () then
        List.iter
          (fun b ->
             if List.memq b ws.free then
               Check.violation "Dmav.return_buffers: buffer returned twice")
          bufs;
      ws.free <- List.rev_append bufs ws.free
    | None -> ()

  let apply_cache ?workspace p ~pool ~n root ~v ~w =
    if P.length v <> 1 lsl n || P.length w <> 1 lsl n then
      invalid_arg "Dmav.apply_cache: buffer size mismatch";
    Obs.incr c_kernel_cached;
    let t = Cost.pow2_threads ~n (Pool.size pool) in
    let h = (1 lsl n) / t in
    let tasks = Cost.assign p ~n ~t Cost.Column_major root in
    let mv = Dd.mview p in
    (* Buffer allocation over the threads' output-block sets. *)
    let blocks = Array.map (List.map (fun (task : Cost.task) -> task.start)) tasks in
    let v_b, n_buffers = Cost.allocate_buffers blocks in
    let bufs = Array.init n_buffers (fun _ -> take_buffer workspace n) in
    (* Occupied blocks per buffer, for targeted zeroing and summation. The
       membership test runs once per (thread, block) pair, so it must be
       O(1): a per-buffer seen-set instead of scanning the accumulated
       list, which is quadratic in the block count when many threads share
       a buffer. *)
    let occupied = Array.make n_buffers [] in
    let occ_seen : (int, unit) Hashtbl.t array =
      Array.init n_buffers (fun _ -> Hashtbl.create 16)
    in
    Array.iteri
      (fun u blks ->
         let bi = v_b.(u) in
         let seen = occ_seen.(bi) in
         List.iter
           (fun b ->
              if not (Hashtbl.mem seen b) then begin
                Hashtbl.replace seen b ();
                occupied.(bi) <- b :: occupied.(bi)
              end)
           blks)
      blocks;
    (* Zero exactly the blocks Run will accumulate into. *)
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:n_buffers (fun bi ->
        List.iter (fun blk -> P.fill_zero_range bufs.(bi) ~pos:blk ~len:h) occupied.(bi));
    let hit_counts = Array.make t 0 in
    (* Check mode: each block write is claimed on a per-buffer region, so
       a Cost.allocate_buffers bug that shares a buffer between threads
       with overlapping block sets surfaces as a cross-domain race. *)
    let claim =
      if Check.enabled () then begin
        let regions =
          Array.init n_buffers (fun i ->
              Check.region ~name:(Printf.sprintf "dmav.%s.buf%d" P.label i))
        in
        fun u blk ->
          Check.claim regions.(v_b.(u)) ~owner:(Domain.self () :> int) ~lo:blk
            ~hi:(blk + h)
      end
      else fun _ _ -> ()
    in
    Pool.run pool (fun u ->
        if u < t then begin
          let buf = bufs.(v_b.(u)) in
          let cache : (int, Cnum.t * int) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun (task : Cost.task) ->
               claim u task.start;
               match Hashtbl.find_opt cache (Dd.mid task.node) with
               | Some (f0, ip0) ->
                 (* Same sub-matrix node, same V slice: the new block is
                    the old one scaled by the weight ratio. *)
                 hit_counts.(u) <- hit_counts.(u) + 1;
                 P.scale_into ~src:buf ~src_pos:ip0 ~dst:buf ~dst_pos:task.start ~len:h
                   (Cnum.div task.weight f0)
               | None ->
                 run_task mv task ~v ~w:buf ~iv:(u * h) ~iw:task.start;
                 Hashtbl.replace cache (Dd.mid task.node) (task.weight, task.start))
            tasks.(u)
        end);
    let hits = Array.fold_left ( + ) 0 hit_counts in
    (* Sum the partial outputs into W, one output block per loop step. *)
    let contributors = Array.make t [] in
    Array.iteri
      (fun bi blks ->
         List.iter (fun blk -> contributors.(blk / h) <- bi :: contributors.(blk / h)) blks)
      occupied;
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:t (fun blk ->
        P.fill_zero_range w ~pos:(blk * h) ~len:h;
        List.iter
          (fun bi ->
             P.add_into ~src:bufs.(bi) ~src_pos:(blk * h) ~dst:w ~dst_pos:(blk * h) ~len:h)
          contributors.(blk));
    return_buffers workspace (Array.to_list bufs);
    if Obs.enabled () then begin
      Obs.add c_cache_hits hits;
      Obs.add c_buffers n_buffers
    end;
    (hits, n_buffers)

  let apply_decided ?workspace:ws p ~pool ~n (decision : Cost.decision) root ~v ~w =
    if Obs.enabled () then begin
      let t = float_of_int decision.Cost.threads_used in
      Obs.fadd fc_macs_modeled (Cost.modeled_macs decision);
      Obs.fadd fc_macs_modeled_cached (t *. decision.Cost.c2);
      Obs.fadd fc_macs_modeled_uncached (t *. decision.Cost.c1);
      Obs.fadd fc_macs_modeled_identity (Cost.identity_macs p ~n decision root)
    end;
    Obs.with_span s_apply (fun () ->
        if decision.Cost.cached then begin
          let hits, buffers = apply_cache ?workspace:ws p ~pool ~n root ~v ~w in
          { used_cache = true; decision; cache_hits = hits; buffers_used = buffers }
        end
        else begin
          apply_nocache p ~pool ~n root ~v ~w;
          { used_cache = false; decision; cache_hits = 0; buffers_used = 0 }
        end)

  let apply ?workspace:ws p ~pool ~n root ~v ~w =
    let decision = Cost.decide p ~n ~threads:(Pool.size pool) root in
    apply_decided ?workspace:ws p ~pool ~n decision root ~v ~w
end
