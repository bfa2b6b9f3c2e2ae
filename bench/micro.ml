(* Bechamel microbenchmarks for the core kernels: DD matrix-vector, the
   two DMAV kernels, the two converters, and the two array-engine kernels.
   One Test.make per kernel; OLS estimate of ns/run against the monotonic
   clock. *)

open Bechamel
open Toolkit

let make_tests pool =
  let n = 10 in
  let p = Dd.create () in
  let gate = Mat_dd.of_single p ~n ~target:(n - 1) ~controls:[] Gate.h in
  let cx = Mat_dd.of_single p ~n ~target:7 ~controls:[ 2 ] Gate.x in
  let c = Suite.generate ~seed:1 ~gates:200 Suite.Supremacy ~n in
  let vdd = Workloads.dd_state p c in
  let vbuf = Convert.sequential p ~n vdd in
  let vflat = Buf.copy vbuf in
  let wflat = Buf.create (1 lsl n) in
  let ws = Dmav.workspace ~n in
  (* Gates are compiled once, as the flat phase's planner does; the
     staged calls time what its executor runs per gate. *)
  let program ~cached m =
    Flat_gate.program p ~n ~cached (Cost.breakdown p ~n ~threads:(Pool.size pool) m)
  in
  let h_nocache = program ~cached:false gate in
  let h_cached = program ~cached:true gate in
  let cx_nocache = program ~cached:false cx in
  let st = State.of_buf n (Buf.copy vbuf) in
  [ Test.make ~name:"dd-mv (H top, dense state)"
      (Staged.stage (fun () -> ignore (Dd.mv p gate vdd)));
    Test.make ~name:"dmav nocache (H top)"
      (Staged.stage (fun () -> Dmav.run ~pool h_nocache ~v:vflat ~w:wflat));
    Test.make ~name:"dmav cached (H top)"
      (Staged.stage (fun () ->
           Dmav.run ~workspace:ws ~pool h_cached ~v:vflat ~w:wflat));
    Test.make ~name:"dmav nocache (CX)"
      (Staged.stage (fun () -> Dmav.run ~pool cx_nocache ~v:vflat ~w:wflat));
    Test.make ~name:"convert sequential"
      (Staged.stage (fun () -> ignore (Convert.sequential p ~n vdd)));
    Test.make ~name:"convert parallel(1)"
      (Staged.stage (fun () -> ignore (Convert.parallel p ~pool ~n vdd)));
    Test.make ~name:"array kernel (H)"
      (Staged.stage (fun () -> Apply.single st Gate.h ~target:5 ~controls:[]));
    Test.make ~name:"qpp kernel (H)"
      (Staged.stage (fun () -> Qpp_kernel.single st Gate.h ~target:5 ~controls:[]));
    Test.make ~name:"mac_count (supremacy gate)"
      (Staged.stage (fun () -> ignore (Cost.mac_count p gate))) ]

let run () =
  Report.section "Microbenchmarks (bechamel, ns per run)";
  Pool.with_pool 1 (fun pool ->
  let tests = make_tests pool in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"flatdd" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
       Printf.printf "measure: %s\n" measure;
       let rows = ref [] in
       Hashtbl.iter
         (fun name ols_result ->
            let est =
              match Analyze.OLS.estimates ols_result with
              | Some (v :: _) -> Printf.sprintf "%.0f" v
              | _ -> "n/a"
            in
            rows := [ name; est ] :: !rows)
         tbl;
       Report.table ~title:("microbench (" ^ measure ^ ")")
         ~header:[ "kernel"; "ns/run" ]
         (List.sort compare !rows))
    merged)
