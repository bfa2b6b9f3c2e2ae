(* Per-gate kernel dispatch (lib/engine). With [Config.dense_dispatch]
   the flat phase's planner compiles every unfused single-qubit op to
   the dense direct kernel by rule ([Flat_gate.dense]), building no gate
   DD: the kernel streams the 2ⁿ⁻ᶜ amplitudes a c-controlled gate
   touches at [Cost.dense_rate] (0.125 priced MACs) each, below the
   least a Run row or Algorithm 2's block term can cost. Without it the
   same op runs on the local leg (an op of support ≤ 2) or on the DMAV
   Run. This experiment times both on layers of unfused h/ry gates at
   flat-phase sizes. *)

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
    "every unfused single-qubit gate dispatches dense, by rule; fused gates and \
     two-qubit ops stay on the local leg or DMAV."
