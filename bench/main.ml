(* The experiment harness: regenerates every table and figure of the
   paper's evaluation section (plus the motivating Figure 1 and overview
   Figure 3). The experiments beyond the paper each back a row of
   EXPERIMENTS.md or a CI step: ablation (design-choice sweeps),
   fusion_price (the identity-stripe MAC price of DMAV-aware fusion),
   order (qubit ordering), precision (f64 vs f32) and lanes (the dense
   and local kernels' vector bodies).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one experiment
     dune exec bench/main.exe fig12 fig14
     dune exec bench/main.exe micro      # bechamel kernel microbenches

   Environment knobs: FLATDD_BENCH_DD_LIMIT (seconds, default 20) bounds
   the DD baseline per run; FLATDD_BENCH_THREADS (default 4) sets the
   worker count for the multi-threaded engines; FLATDD_BENCH_METRICS=FILE
   enables the qcs_obs instrumentation layer for the whole run and writes
   the metrics snapshot (cache hit rates, per-phase spans) to FILE. *)

let experiments =
  [ ("table1", Exp_table1.run);
    ("table2", Exp_table2.run);
    ("fusion_price", Exp_fusion_price.run);
    ("fig1", Exp_fig1.run);
    ("fig3", Exp_fig3.run);
    ("fig11", Exp_fig11.run);
    ("fig12", Exp_fig12.run);
    ("fig13", Exp_fig13.run);
    ("fig14", Exp_fig14.run);
    ("ablation", Exp_ablation.run);
    ("order", Exp_order.run);
    ("precision", Exp_precision.run);
    ("lanes", Exp_lanes.run) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Timer.now_ns () in
  Printf.printf "FlatDD experiment harness — %d worker threads, DD budget %.0fs\n%!"
    Workloads.threads_default Workloads.dd_time_limit;
  let run_selected () =
    match args with
    | [] -> List.iter (fun (_, f) -> f ()) experiments
    | names ->
      List.iter
        (fun name ->
           match List.assoc_opt name experiments with
           | Some f -> f ()
           | None when name = "micro" -> Micro.run ()
           | None when name = "all" -> List.iter (fun (_, f) -> f ()) experiments
           | None ->
             Printf.eprintf "unknown experiment %S (known: %s, micro, all)\n" name
               (String.concat ", " (List.map fst experiments));
             exit 1)
        names
  in
  (match Sys.getenv_opt "FLATDD_BENCH_METRICS" with
   | Some path -> Report.with_metrics_json path run_selected
   | None -> run_selected ());
  Printf.printf "\nharness total: %.1fs\n"
    (Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9)
