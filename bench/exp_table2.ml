(* Table 2 — DMAV-aware gate fusion vs no fusion vs k-operations on the
   six deepest circuits. "Cost" is the modeled MAC work of the DMAV phase
   (Σ over applied gates of the chosen kernel's cost × threads), the same
   quantity the paper tabulates. *)

type variant_result = { seconds : float; cost : float; gates_out : int }

let run_variant pool fusion c =
  let cfg =
    { Config.default with
      Config.threads = Pool.size pool;
      fusion }
  in
  let r = Driver.run ~pool cfg c in
  { seconds = r.Driver.seconds_total;
    cost = r.Driver.modeled_macs;
    gates_out = (match r.Driver.fusion_stats with Some st -> st.Fusion.gates_out | None -> 0) }

let run () =
  Report.section "Table 2: DMAV-aware gate fusion vs no fusion vs k-operations";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let results =
        List.map
          (fun row ->
             let c = Workloads.circuit_of row in
             let fused = run_variant pool Config.Dmav_aware c in
             let plain = run_variant pool Config.No_fusion c in
             let kops = run_variant pool (Config.K_operations 4) c in
             (row, Circuit.num_gates c, fused, plain, kops))
          Workloads.table2
      in
      let rows =
        List.map
          (fun ((row : Workloads.row), gates, fused, plain, kops) ->
             [ row.Workloads.label;
               string_of_int row.Workloads.n;
               string_of_int gates;
               Report.time_s fused.seconds;
               string_of_int fused.gates_out;
               Report.sci fused.cost;
               Report.time_s plain.seconds;
               Report.speedup (plain.seconds /. fused.seconds);
               Report.sci plain.cost;
               Report.speedup (plain.cost /. fused.cost);
               Report.time_s kops.seconds;
               Report.speedup (kops.seconds /. fused.seconds);
               Report.sci kops.cost;
               Report.speedup (kops.cost /. fused.cost) ])
          results
      in
      let geo f = Stats.geomean (List.map f results) in
      let footer =
        [ "geomean"; ""; "";
          Report.f3 (geo (fun (_, _, f, _, _) -> f.seconds));
          "";
          Report.sci (geo (fun (_, _, f, _, _) -> f.cost));
          Report.f3 (geo (fun (_, _, _, p, _) -> p.seconds));
          Report.f2 (geo (fun (_, _, f, p, _) -> p.seconds /. f.seconds)) ^ "x";
          Report.sci (geo (fun (_, _, _, p, _) -> p.cost));
          Report.f2 (geo (fun (_, _, f, p, _) -> p.cost /. f.cost)) ^ "x";
          Report.f3 (geo (fun (_, _, _, _, k) -> k.seconds));
          Report.f2 (geo (fun (_, _, f, _, k) -> k.seconds /. f.seconds)) ^ "x";
          Report.sci (geo (fun (_, _, _, _, k) -> k.cost));
          Report.f2 (geo (fun (_, _, f, _, k) -> k.cost /. f.cost)) ^ "x" ]
      in
      Report.table
        ~title:"Table 2 (fusion = DMAV-aware / none / k-operations(k=4))"
        ~header:
          [ "circuit"; "n"; "gates"; "fused t"; "fused gates"; "fused cost"; "plain t"; "spd";
            "plain cost"; "red."; "kops t"; "spd"; "kops cost"; "red." ]
        (rows @ [ footer ]);
      Report.note
        "'spd' and 'red.' are relative to the DMAV-aware fused run; 'fused gates' counts its flat \
         phase's gates after fusion (0 when it never converts).")
