(* Figure 14 — the DMAV caching technique: modeled computational-cost
   reduction and measured speed-up of cost-model-selected caching over the
   uncached kernel, across thread counts, on the six largest circuits.

   The cached kernel replaces repeated border-level sub-multiplications
   with block scalings, so its win is a genuine work reduction — visible
   even on one core. *)

(* The DMAV phase of a circuit, both ways, measured. *)
let dmav_phase pool (c : Circuit.t) ~with_cache =
  let n = c.Circuit.n in
  let cfg =
    { Config.default with
      Config.threads = Pool.size pool }
  in
  ignore cfg;
  let p = Dd.create () in
  (* Convert immediately: the whole circuit runs as DMAV, isolating the
     kernel difference (the paper measures the DMAV workload itself). *)
  let v = ref (State.zero_state n).State.amps in
  let w = ref (Buf.create (1 lsl n)) in
  let ws = Dmav.workspace ~n in
  let swap () =
    let tmp = !v in
    v := !w;
    w := tmp
  in
  let cost_nocache = ref 0.0 and cost_chosen = ref 0.0 in
  (* Settle the GC so major collections do not land arbitrarily inside one
     of the two timed variants. *)
  Gc.full_major ();
  let t0 = Timer.now_ns () in
  Array.iter
    (fun op ->
       let m = Mat_dd.of_op p ~n op in
       if with_cache then begin
         let stats = Dmav.apply ~workspace:ws p ~pool ~n m ~v:!v ~w:!w in
         cost_nocache := !cost_nocache +. stats.Dmav.decision.Cost.c1;
         cost_chosen :=
           !cost_chosen
           +. Float.min stats.Dmav.decision.Cost.c1 stats.Dmav.decision.Cost.c2
       end
       else Dmav.apply_nocache p ~pool ~n m ~v:!v ~w:!w;
       swap ())
    c.Circuit.ops;
  let dt = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9 in
  (dt, !cost_nocache, !cost_chosen, !v)

let run () =
  Report.section "Figure 14: DMAV caching — cost reduction and speed-up vs threads";
  let rows = ref [] in
  List.iter
    (fun threads ->
       let reductions = ref [] and speedups = ref [] in
       List.iter
         (fun (row : Workloads.row) ->
            let c = Workloads.circuit_of row in
            Pool.with_pool threads (fun pool ->
                (* Best-of-3 to damp single-core scheduling noise. *)
                let best3 f =
                  let best = ref (f ()) in
                  for _ = 1 to 2 do
                    let r = f () in
                    let t, _, _, _ = r and t0, _, _, _ = !best in
                    if t < t0 then best := r
                  done;
                  !best
                in
                let t_cache, c1, chosen, v1 =
                  best3 (fun () -> dmav_phase pool c ~with_cache:true)
                in
                let t_plain, _, _, v2 =
                  best3 (fun () -> dmav_phase pool c ~with_cache:false)
                in
                (* Cross-check the kernels agree. *)
                let diff = Buf.max_abs_diff v1 v2 in
                if diff > 1e-8 then
                  Printf.printf "WARNING: kernel mismatch on %s: %.2e\n" row.Workloads.label diff;
                if c1 > 0.0 then reductions := ((c1 -. chosen) /. c1) :: !reductions;
                speedups := ((t_plain /. t_cache) -. 1.0) :: !speedups))
         Workloads.fig14;
       let lo_r, hi_r = Stats.min_max !reductions in
       let lo_s, hi_s = Stats.min_max !speedups in
       rows :=
         [ string_of_int threads;
           Report.pct (Stats.mean !reductions);
           Printf.sprintf "%s .. %s" (Report.pct lo_r) (Report.pct hi_r);
           Report.pct (Stats.mean !speedups);
           Printf.sprintf "%s .. %s" (Report.pct lo_s) (Report.pct hi_s) ]
         :: !rows)
    Workloads.thread_sweep;
  Report.table
    ~title:"Figure 14 (six largest circuits; reduction/speed-up of caching vs uncached)"
    ~header:
      [ "threads"; "avg cost red."; "cost red. range"; "avg speed-up"; "speed-up range" ]
    (List.rev !rows);
  Report.note
    "cost reduction is the modeled (C1 - min(C1,C2))/C1; speed-up is measured wall-clock."
