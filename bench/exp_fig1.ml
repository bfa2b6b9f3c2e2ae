(* Figure 1 — the motivating comparison: normalized runtime and memory of
   a pure DD engine vs a pure array engine on two regular (Adder, GHZ) and
   two irregular (DNN, VQE) circuits. Each pair is normalized to its max,
   as in the paper's bar chart. *)

let run () =
  Report.section "Figure 1: DD vs array engines on regular/irregular circuits";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let rows =
        List.map
          (fun row ->
             let c = Workloads.circuit_of row in
             let dd = Workloads.run_dd c in
             let arr = Workloads.run_qpp ~pool c in
             let dd_mem = float_of_int dd.Workloads.dd_peak_memory_bytes in
             let arr_mem = float_of_int (Workloads.qpp_memory_bytes row.Workloads.n) in
             let tmax = Float.max dd.Workloads.dd_seconds arr.Workloads.seconds in
             let mmax = Float.max dd_mem arr_mem in
             [ row.Workloads.label;
               (if Suite.regular row.Workloads.family then "regular" else "irregular");
               Report.time_s ~timed_out:dd.Workloads.dd_timed_out dd.Workloads.dd_seconds;
               Report.time_s arr.Workloads.seconds;
               Report.f2 (dd.Workloads.dd_seconds /. tmax);
               Report.f2 (arr.Workloads.seconds /. tmax);
               Report.f2 (dd_mem /. mmax);
               Report.f2 (arr_mem /. mmax) ])
          Workloads.fig1
      in
      Report.table
        ~title:"Figure 1 (normalized runtime and memory; 1.00 = worse engine)"
        ~header:
          [ "circuit"; "class"; "DD t(s)"; "array t(s)"; "DD t norm";
            "array t norm"; "DD mem norm"; "array mem norm" ]
        rows;
      Report.note
        "expected shape: DD wins decisively on regular circuits, loses on irregular ones.")
