(* Table 1 — overall runtime and memory: FlatDD vs DDSIM (DD baseline) vs
   Quantum++ (array baseline) on the 12-circuit suite.

   As in the paper, gate fusion is off here; FlatDD and the array baseline
   run multi-threaded, the DD baseline single-threaded. The DD baseline
   runs under a time budget; exceeding it yields "> budget" rows with
   lower-bound speedups, the analogue of the paper's "> 24 h" cells. *)

type row_result = {
  label : string;
  n : int;
  gates : int;
  flat_s : float;
  flat_mem : int;
  dd_s : float;
  dd_timeout : bool;
  dd_mem : int;
  qpp_s : float;
  qpp_timeout : bool;
  qpp_mem : int;
  check : float;  (* max amplitude diff FlatDD vs array baseline *)
}

let run_row pool (r : Workloads.row) =
  let c = Workloads.circuit_of r in
  let cfg =
    { Config.default with Config.threads = Pool.size pool }
  in
  let flat = Driver.run ~pool cfg c in
  let dd = Workloads.run_dd c in
  let qpp = Workloads.run_qpp ~pool ~time_limit:(2.0 *. Workloads.dd_time_limit) c in
  let check =
    if qpp.Workloads.timed_out then nan
    else Buf.max_abs_diff (Driver.amplitudes flat) qpp.Workloads.state.State.amps
  in
  { label = r.Workloads.label;
    n = r.Workloads.n;
    gates = Circuit.num_gates c;
    flat_s = flat.Driver.seconds_total;
    flat_mem = flat.Driver.peak_memory_bytes;
    dd_s = dd.Workloads.dd_seconds;
    dd_timeout = dd.Workloads.dd_timed_out;
    dd_mem = dd.Workloads.dd_peak_memory_bytes;
    qpp_s = qpp.Workloads.seconds;
    qpp_timeout = qpp.Workloads.timed_out;
    qpp_mem = Workloads.qpp_memory_bytes r.Workloads.n;
    check }

let run () =
  Report.section "Table 1: runtime and memory, FlatDD vs DDSIM vs Quantum++";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let results = List.map (run_row pool) Workloads.table1 in
      let rows =
        List.map
          (fun r ->
             [ r.label;
               string_of_int r.n;
               string_of_int r.gates;
               Report.time_s r.flat_s;
               Report.mem_mb r.flat_mem;
               Report.time_s ~timed_out:r.dd_timeout r.dd_s;
               Report.speedup ~lower_bound:r.dd_timeout (r.dd_s /. r.flat_s);
               Report.mem_mb r.dd_mem;
               Report.time_s ~timed_out:r.qpp_timeout r.qpp_s;
               Report.speedup ~lower_bound:r.qpp_timeout (r.qpp_s /. r.flat_s);
               Report.mem_mb r.qpp_mem;
               (if Float.is_nan r.check then "n/a" else Printf.sprintf "%.0e" r.check) ])
          results
      in
      let geo f = Stats.geomean (List.map f results) in
      let footer =
        [ "geomean";
          "";
          "";
          Report.f3 (geo (fun r -> r.flat_s));
          Report.mem_mb (int_of_float (geo (fun r -> float_of_int r.flat_mem)));
          "> " ^ Report.f3 (geo (fun r -> r.dd_s));
          "> " ^ Report.f2 (geo (fun r -> r.dd_s /. r.flat_s)) ^ "x";
          Report.mem_mb (int_of_float (geo (fun r -> float_of_int r.dd_mem)));
          Report.f3 (geo (fun r -> r.qpp_s));
          Report.f2 (geo (fun r -> r.qpp_s /. r.flat_s)) ^ "x";
          Report.mem_mb (int_of_float (geo (fun r -> float_of_int r.qpp_mem)));
          "" ]
      in
      Report.table ~title:"Table 1 (times in seconds, memory in MB)"
        ~header:
          [ "circuit"; "n"; "gates"; "FlatDD t"; "FlatDD MB"; "DDSIM t"; "DD spd";
            "DDSIM MB"; "Q++ t"; "Q++ spd"; "Q++ MB"; "maxdiff" ]
        (rows @ [ footer ]);
      Report.note "FlatDD and Quantum++ use %d threads; DDSIM is single-threaded (as in the paper)."
        (Pool.size pool);
      Report.note "DD budget %.0fs: '>' rows timed out, speedups there are lower bounds."
        Workloads.dd_time_limit)
