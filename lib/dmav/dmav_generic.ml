(* DD-matrix × array-vector kernels over a storage kind [P : Storage.S] —
   the only DMAV kernels, for both precisions: [Dmav] is
   [Make (Storage.F64)], and the f32 flat engine instantiates it at
   [Storage.F32].

   Every kernel runs a compiled gate ([Flat_gate]): the task lists, the
   cache hits and the buffer plan were fixed when the gate was compiled, and each Run call is one call into the
   [P.dmav_run] C stub over the gate's own arena. Cache hits, buffer
   zeroing and summation are one stripe-primitive call per block. W is
   zeroed inside the workers, one output stripe or block each. Weights
   always stay f64 — they were copied off the ctable planes — so at
   [F32] the only rounding happens on the stores. A gate's [threads]
   task lists run on whatever pool is given: worker [w] takes lists
   [w], [w + size], ..., so a size-1 pool runs them all, in order, with
   the same tasks, caches and sums, and the same bytes.

   Instrumentation is per kernel invocation (one gate application), never
   per MAC. [Obs] instruments are registered by name and a repeated name
   returns the existing one, so every instance of [Make] feeds the same
   [dmav.*] counters and span: f64 and f32 gates are counted together. *)

(* A free list of reusable 2ⁿ-sized buffers: the cached kernel's partial
   outputs and the flat engine's scratch vector W. Polymorphic in the buffer
   so a workspace type can be named without applying [Make]. *)
type 'b workspace = { ws_n : int; mutable free : 'b list }

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

  type nonrec workspace = P.t workspace

  let workspace ~n : workspace = { ws_n = n; free = [] }

  let take ws =
    match ws.free with
    | b :: rest ->
      ws.free <- rest;
      b
    | [] -> P.create (1 lsl ws.ws_n)

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

  (* Worker [wk] of [pool] runs the task lists [wk], [wk + size], ... *)
  let[@inline] each_list pool t wk f =
    let size = Pool.size pool in
    let u = ref wk in
    while !u < t do
      f !u;
      u := !u + size
    done

  let run_pieces (g : Flat_gate.program) ~v ~w k =
    for i = g.tasks.((3 * k) + 2) to g.tasks.((3 * k) + 5) - 1 do
      P.dmav_run g.arena ~node:g.pieces.(3 * i) ~v ~w ~iv:g.pieces.((3 * i) + 1)
        ~iw:g.pieces.((3 * i) + 2) ~fre:g.weights.(2 * i) ~fim:g.weights.((2 * i) + 1)
    done

  (* Algorithm 1: list [u] owns W's stripe [u]. *)
  let run_nocache ~pool (g : Flat_gate.program) ~v ~w =
    Obs.incr c_kernel_uncached;
    let t = g.threads in
    let h = (1 lsl g.n) / t in
    (* Check mode: each list claims its W stripe on a region scoped to
       this kernel call, so a task-assignment bug that lands two domains
       on the same output rows is reported as a race. The stripe is
       zeroed after the claim. *)
    let claim =
      if Check.enabled () then begin
        let r = Check.region ~name:("dmav." ^ P.label ^ ".w") in
        fun lo hi -> Check.claim r ~owner:(Domain.self () :> int) ~lo ~hi
      end
      else fun _ _ -> ()
    in
    Pool.run pool (fun wk ->
        each_list pool t wk (fun u ->
            claim (u * h) ((u + 1) * h);
            P.fill_zero_range w ~pos:(u * h) ~len:h;
            for k = g.lists.(u) to g.lists.(u + 1) - 1 do
              run_pieces g ~v ~w k
            done))

  (* Algorithm 2: list [u] reads V's slice [u] and writes the blocks of
     its partial-output buffer; the buffers are summed into W at the
     end, block by block. *)
  let run_cache ?workspace ~pool (g : Flat_gate.program) ~v ~w =
    Obs.incr c_kernel_cached;
    let n = g.n and t = g.threads in
    let h = (1 lsl n) / t in
    let bufs = Array.init g.buffers (fun _ -> take_buffer workspace n) in
    (* Zero exactly the blocks Run will accumulate into. *)
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:g.buffers (fun bi ->
        Array.iter (fun blk -> P.fill_zero_range bufs.(bi) ~pos:blk ~len:h) g.occupied.(bi));
    (* Check mode: each block write is claimed on a per-buffer region, so
       a Cost.allocate_buffers bug that shares a buffer between lists
       with overlapping block sets surfaces as a cross-domain race. *)
    let claim =
      if Check.enabled () then begin
        let regions =
          Array.init g.buffers (fun i ->
              Check.region ~name:(Printf.sprintf "dmav.%s.buf%d" P.label i))
        in
        fun u blk ->
          Check.claim regions.(g.thread_buffer.(u)) ~owner:(Domain.self () :> int) ~lo:blk
            ~hi:(blk + h)
      end
      else fun _ _ -> ()
    in
    Pool.run pool (fun wk ->
        each_list pool t wk (fun u ->
            let buf = bufs.(g.thread_buffer.(u)) in
            for k = g.lists.(u) to g.lists.(u + 1) - 1 do
              let start = g.tasks.(3 * k) in
              claim u start;
              let src = g.tasks.((3 * k) + 1) in
              if src >= 0 then
                (* Same sub-matrix node, same V slice: the new block is
                   the old one scaled by the weight ratio. *)
                P.scale2_into ~src:buf ~src_pos:src ~dst:buf ~dst_pos:start ~len:h
                  ~sre:g.ratios.(2 * k) ~sim:g.ratios.((2 * k) + 1)
              else run_pieces g ~v ~w:buf k
            done));
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:t (fun blk ->
        P.fill_zero_range w ~pos:(blk * h) ~len:h;
        Array.iter
          (fun bi ->
             P.add_into ~src:bufs.(bi) ~src_pos:(blk * h) ~dst:w ~dst_pos:(blk * h) ~len:h)
          g.contributors.(blk));
    return_buffers workspace (Array.to_list bufs);
    if Obs.enabled () then begin
      Obs.add c_cache_hits g.hits;
      Obs.add c_buffers g.buffers
    end

  let run ?workspace ~pool (g : Flat_gate.program) ~v ~w =
    if P.length v <> 1 lsl g.n || P.length w <> 1 lsl g.n then
      invalid_arg "Dmav.run: buffer size mismatch";
    if g.cached then run_cache ?workspace ~pool g ~v ~w else run_nocache ~pool g ~v ~w

  (* The pick's modeled work, whichever leg runs it. *)
  let count_modeled (g : Flat_gate.t) =
    if Obs.enabled () then begin
      let decision = g.dispatch.Cost.dmav in
      let t = float_of_int decision.Cost.threads_used in
      Obs.fadd fc_macs_modeled (Cost.modeled_macs decision);
      Obs.fadd fc_macs_modeled_cached (t *. decision.Cost.c2);
      Obs.fadd fc_macs_modeled_uncached (t *. decision.Cost.c1);
      Obs.fadd fc_macs_modeled_identity g.identity_macs
    end

  module DK = Dense_kernel.Make (P)

  let c_runs = Obs.counter "dmav.runs"

  (* [Dense_kernel.split_bits] for this storage kind's amplitudes. *)
  let split_bits ~pool ~n support =
    Dense_kernel.split_bits ~threads:(Pool.size pool) ~n ~amplitude_bytes:(2 * P.bytes_per_float)
      support

  let local_of (g : Flat_gate.t) =
    match g.body with
    | Flat_gate.Local l -> l
    | Flat_gate.Dmav _ -> invalid_arg "Dmav.local_run: a Run gate in a run"

  (* A run of local gates (DESIGN.md §9): gates [0, count) of [gate], all
     on the local leg with supports off [split] ([split_bits]),
     applied in place on [v] by one [Pool.run]. Domain [w] takes part [w]
     of the parts [split] cuts, then the next part no domain has taken,
     and applies every gate of the run to a part, in order, before it
     takes another: no gate of the run moves an amplitude out of its
     part, so there is no barrier between gates, a part stays in the
     domain's cache through the run, and a slow domain takes fewer parts.
     Domain 0 calls [before k] ahead of gate [k] on its first part, and,
     once its parts are done, [after k seconds] with its time on them,
     which is also the gate's [dmav.apply] share; each gate is counted as
     the uncached kernel it stands in for. When a domain raises (a cancel
     poll in [before]), the others stop at their next gate and the
     exception is re-raised: each part is left at a whole gate. No split
     bits: one part, on the caller; [dmav.runs] counts the others. *)
  let local_run ~pool ~split v ~count ~gate ~before ~after =
    let parts = 1 lsl Bits.popcount split in
    let stop = Atomic.make false and next = Atomic.make (Pool.size pool) in
    (* Check mode: each domain claims its parts on a region scoped to
       this run, so a part taken by two domains is reported as a race. *)
    let claim =
      if Check.enabled () then begin
        let r = Check.region ~name:("dmav." ^ P.label ^ ".run") in
        fun part -> Check.claim r ~owner:(Domain.self () :> int) ~lo:part ~hi:(part + 1)
      end
      else fun _ -> ()
    in
    let seconds = Array.make count 0 in
    let apply part k =
      let l = local_of (gate k) in
      DK.local_part v l.u ~support:l.support ~controls:l.controls ~paths:l.paths ~split ~part
    in
    let domain wk =
      try
        let part = ref wk in
        while !part < parts && not (Atomic.get stop) do
          claim !part;
          let k = ref 0 in
          while !k < count && not (Atomic.get stop) do
            if wk = 0 then begin
              if !part = 0 then before !k;
              let t0 = Timer.now () in
              apply !part !k;
              seconds.(!k) <- seconds.(!k) + Timer.ns_since t0
            end
            else apply !part !k;
            incr k
          done;
          part := Atomic.fetch_and_add next 1
        done;
        if wk = 0 && not (Atomic.get stop) then
          for k = 0 to count - 1 do
            Obs.incr c_kernel_uncached;
            count_modeled (gate k);
            Obs.add_span_ns s_apply seconds.(k);
            after k (float_of_int seconds.(k) *. 1e-9)
          done
      with e ->
        Atomic.set stop true;
        raise e
    in
    if parts = 1 then domain 0
    else begin
      Obs.incr c_runs;
      Pool.run pool domain
    end

  (* A compiled gate on its kernel, the one match over its body: the
     local leg works in place on [v], as a one-gate run, the Run writes
     the buffer [w ()] gives. *)
  let exec ?workspace ~pool (g : Flat_gate.t) ~v ~w =
    match g.body with
    | Flat_gate.Local l ->
      let split = split_bits ~pool ~n:(Bits.log2_exact (P.length v)) l.support in
      local_run ~pool ~split v ~count:1 ~gate:(fun _ -> g) ~before:ignore ~after:(fun _ _ -> ())
    | Flat_gate.Dmav prog ->
      count_modeled g;
      Obs.with_span s_apply (fun () -> run ?workspace ~pool prog ~v ~w:(w ()))

  let apply_nocache p ~pool ~n root ~v ~w =
    let b = Cost.breakdown p ~n ~threads:(Pool.size pool) root in
    run ~pool (Flat_gate.program p ~n ~cached:false b) ~v ~w

  let apply ?workspace p ~pool ~n root ~v ~w =
    let g = Flat_gate.compile p ~n ~threads:(Pool.size pool) root in
    exec ?workspace ~pool g ~v ~w:(fun () -> w);
    g
end
