(* Per-gate kernel dispatch (lib/engine). On an unfused single-qubit gate
   the DMAV kernels traverse the gate's full n-qubit matrix DD — at least
   2ⁿ scalar MACs of pointer-chasing — while the dense direct kernel
   streams 2ⁿ⁻¹ contiguous amplitude pairs branch-free. The §3.2.3 cost
   extension prices dense at 2ⁿ⁺¹/(d·t) and dispatches such gates to the
   dense kernel; this experiment shows that pick winning on layers of
   unfused h/ry gates once the vectors are flat-phase sized (n ≥ 20). *)

let unfused_layers n =
  let b = Circuit.Builder.create ~name:(Printf.sprintf "1q-layers-%d" n) n in
  for _layer = 1 to 2 do
    for q = 0 to n - 1 do
      Circuit.Builder.h b q
    done;
    for q = 0 to n - 1 do
      Circuit.Builder.ry b 0.3 q
    done
  done;
  Circuit.Builder.finish b

let run () =
  Report.section "Per-gate kernel dispatch: dense direct vs DMAV (unfused 1q gates)";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let rows =
        List.map
          (fun n ->
             let c = unfused_layers n in
             let cfg dense_dispatch =
               { Config.default with
                 Config.threads = Pool.size pool;
                 policy = Config.Convert_at (-1);
                 dense_dispatch }
             in
             let r_dmav = Driver.run ~pool (cfg false) c in
             let r_dense = Driver.run ~pool (cfg true) c in
             let gates = Circuit.num_gates c in
             let dense_gates =
               gates - r_dense.Driver.dmav_gates_cached
               - r_dense.Driver.dmav_gates_uncached
             in
             [ string_of_int n;
               string_of_int gates;
               Printf.sprintf "%d/%d" r_dmav.Driver.dmav_gates_cached
                 r_dmav.Driver.dmav_gates_uncached;
               string_of_int dense_gates;
               Report.time_s r_dmav.Driver.seconds_dmav;
               Report.time_s r_dense.Driver.seconds_dmav;
               Report.speedup
                 (r_dmav.Driver.seconds_dmav /. r_dense.Driver.seconds_dmav) ])
          [ 16; 18; 20 ]
      in
      Report.table
        ~title:"flat phase, 2 layers of h + ry on every qubit (Convert_at -1, no fusion)"
        ~header:
          [ "n"; "gates"; "dmav c/u"; "dense gates"; "dmav t(s)"; "dispatch t(s)";
            "speedup" ]
        rows);
  Report.note
    "every unfused single-qubit gate dispatches dense (2ⁿ⁺¹/d beats the ≥2ⁿ DD \
     traversal); fused or multi-qubit permutation gates stay on DMAV."
