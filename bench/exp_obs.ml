(* Instrumentation-overhead experiment: the DMAV kernels with metrics
   disabled vs enabled, against the same dense state.

   The qcs_obs call sites in the kernel path run once per *invocation* (gate
   application), never per amplitude, so the disabled cost is a handful of
   flag loads per gate; this experiment makes that claim measurable. The
   acceptance bar is < 2% disabled-mode overhead, which in one binary can
   only be read as enabled-vs-disabled plus the structural argument above —
   there is no uninstrumented build to diff against. *)

let bench ~warmup ~iters f =
  for _ = 1 to warmup do
    f ()
  done;
  let (), dt = Timer.time (fun () -> for _ = 1 to iters do f () done) in
  dt /. float_of_int iters

let run () =
  Report.section "Instrumentation overhead (qcs_obs on the DMAV kernels)";
  let n = 14 in
  let iters = 60 in
  Pool.with_pool 1 (fun pool ->
      let p = Dd.create () in
      (* A dense, irregular state: exactly the regime DMAV runs in. *)
      let c = Suite.generate ~seed:1 ~gates:200 Suite.Supremacy ~n in
      let v = Convert.sequential p ~n (Workloads.dd_state p c) in
      let w = Buf.create (1 lsl n) in
      let h = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
      let cx = Mat_dd.of_single p ~n ~target:7 ~controls:[ 2 ] Gate.x in
      let ws = Dmav.workspace ~n in
      let kernels =
        [ ("dmav nocache (H top)", fun () -> Dmav.apply_nocache p ~pool ~n h ~v ~w);
          ("dmav nocache (CX)", fun () -> Dmav.apply_nocache p ~pool ~n cx ~v ~w);
          ( "dmav apply (cost model)",
            fun () ->
              ignore (Dmav.apply ~workspace:ws p ~pool ~simd_width:4 ~n h ~v ~w) ) ]
      in
      let was_enabled = Obs.enabled () in
      let rows =
        List.map
          (fun (name, f) ->
             Obs.set_enabled false;
             let off = bench ~warmup:5 ~iters f in
             Obs.set_enabled true;
             let on = bench ~warmup:5 ~iters f in
             Obs.set_enabled was_enabled;
             [ name;
               Printf.sprintf "%.0f" (off *. 1e9);
               Printf.sprintf "%.0f" (on *. 1e9);
               Printf.sprintf "%+.2f%%" (100.0 *. ((on -. off) /. off)) ])
          kernels
      in
      Report.table ~title:"metrics disabled vs enabled (ns per gate application)"
        ~header:[ "kernel"; "off ns"; "on ns"; "delta" ]
        rows;
      Report.note
        "instrumentation is per kernel invocation (flag check + a few atomics), never per MAC")
