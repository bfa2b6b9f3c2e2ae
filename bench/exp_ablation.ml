(* Ablations for the design choices DESIGN.md calls out:
   (1) the EWMA conversion policy's β/ε surface — the paper fixes
       β = 0.9, ε = 2 and claims robustness;
   (2) the k of the k-operations baseline — showing blind grouping can
       help or hurt, which motivates the cost-aware rule;
   (3) EWMA against fixed-point conversion policies. *)

let ewma_grid () =
  let betas = [ 0.5; 0.8; 0.9; 0.97 ] in
  let epsilons = [ 1.2; 2.0; 4.0 ] in
  let circuits =
    [ Workloads.row Suite.Dnn 11 ~gates:400;
      Workloads.row Suite.Supremacy 11 ~gates:350;
      Workloads.row Suite.Ghz 16 ]
  in
  Pool.with_pool Workloads.threads_default (fun pool ->
      List.iter
        (fun (row : Workloads.row) ->
           let c = Workloads.circuit_of row in
           let rows =
             List.concat_map
               (fun beta ->
                  List.map
                    (fun epsilon ->
                       let cfg =
                         { Config.default with
                           Config.threads = Pool.size pool;
                           beta;
                           epsilon }
                       in
                       let r = Driver.run ~pool cfg c in
                       [ Printf.sprintf "%.2f" beta;
                         Printf.sprintf "%.1f" epsilon;
                         (match r.Driver.converted_at with
                          | None -> "never"
                          | Some i -> string_of_int i);
                         Report.time_s r.Driver.seconds_total ])
                    epsilons)
               betas
           in
           Report.table
             ~title:
               (Printf.sprintf "Ablation: EWMA (beta, epsilon) on %s" c.Circuit.name)
             ~header:[ "beta"; "epsilon"; "conv@gate"; "total t(s)" ]
             rows)
        circuits);
  Report.note
    "with the paper's settings (beta 0.9, eps 2) the regular circuit never converts and \
     irregular runtimes are flat; only extreme settings (eps near 1) misfire."

let kops_sweep () =
  Pool.with_pool Workloads.threads_default (fun pool ->
      let c = Suite.generate ~seed:1 ~gates:2000 Suite.Dnn ~n:14 in
      let run fusion =
        let cfg =
          { Config.default with Config.threads = Pool.size pool; fusion }
        in
        let r = Driver.run ~pool cfg c in
        (r.Driver.seconds_total, r.Driver.modeled_macs)
      in
      let t0, c0 = run Config.No_fusion in
      let ta, ca = run Config.Dmav_aware in
      let rows =
        [ [ "none"; Report.time_s t0; Report.sci c0; "1.00x" ];
          [ "dmav-aware"; Report.time_s ta; Report.sci ca;
            Report.speedup (c0 /. ca) ] ]
        @ List.map
            (fun k ->
               let tk, ck = run (Config.K_operations k) in
               [ Printf.sprintf "k-ops k=%d" k; Report.time_s tk; Report.sci ck;
                 Report.speedup (c0 /. ck) ])
            [ 2; 3; 4; 6; 8 ]
      in
      Report.table
        ~title:(Printf.sprintf "Ablation: fusion strategy on %s" c.Circuit.name)
        ~header:[ "strategy"; "total t(s)"; "modeled cost"; "cost red." ]
        rows);
  Report.note
    "blind k-grouping reduces cost up to a point and then inflates it (Figure 10's \
     lesson); the cost-aware rule dominates every k."

let policy_comparison () =
  Pool.with_pool Workloads.threads_default (fun pool ->
      let c = Suite.generate ~seed:1 ~gates:400 Suite.Supremacy ~n:12 in
      let gates = Circuit.num_gates c in
      let run policy =
        let cfg =
          { Config.default with Config.threads = Pool.size pool; policy }
        in
        let r = Driver.run ~pool cfg c in
        ( r.Driver.seconds_total,
          match r.Driver.converted_at with None -> "never" | Some i -> string_of_int i )
      in
      let rows =
        [ (let t, at = run Config.Ewma_policy in
           [ "ewma (paper)"; at; Report.time_s t ]);
          (let t, at = run (Config.Convert_at (-1)) in
           [ "convert at start"; at; Report.time_s t ]);
          (let t, at = run (Config.Convert_at (gates / 2)) in
           [ "convert at midpoint"; at; Report.time_s t ]);
          (let t, at = run Config.Never_convert in
           [ "never convert (pure DD)"; at; Report.time_s t ]) ]
      in
      Report.table
        ~title:(Printf.sprintf "Ablation: conversion policy on %s" c.Circuit.name)
        ~header:[ "policy"; "conv@gate"; "total t(s)" ]
        rows);
  Report.note
    "EWMA should be near the best fixed policy without knowing the circuit in advance."

let run () =
  Report.section "Ablations (DESIGN.md section 5)";
  ewma_grid ();
  kops_sweep ();
  policy_comparison ()
