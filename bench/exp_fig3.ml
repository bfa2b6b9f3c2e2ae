(* Figure 3 — the FlatDD overview trace: per-gate runtime, the state DD
   size, and the EWMA monitor value, showing the engine switching from DD
   simulation to DMAV when the regularity collapses. *)

let run () =
  Report.section "Figure 3: per-gate FlatDD trace (DD size, EWMA, engine switch)";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let c = Suite.generate ~seed:1 ~gates:220 Suite.Supremacy ~n:12 in
      let cfg =
        { Config.default with
          Config.threads = Pool.size pool;
          trace = true }
      in
      let r = Driver.run ~pool cfg c in
      let rows = ref [] in
      let emit (g : Engine.gate_record) =
        rows :=
          [ string_of_int g.Engine.index;
            g.Engine.name;
            (match g.Engine.phase with
             | Engine.Dd_phase -> "DD"
             | Engine.Conversion -> ">> CONVERT <<"
             | Engine.Dmav_phase ->
               (match g.Engine.dispatch with
                | Some Engine.Dmav_cached -> "DMAV (cached)"
                | _ -> "DMAV"));
            Printf.sprintf "%.6f" g.Engine.seconds;
            (if g.Engine.dd_size > 0 then string_of_int g.Engine.dd_size else "-");
            (if g.Engine.ewma > 0.0 then Printf.sprintf "%.1f" g.Engine.ewma else "-") ]
          :: !rows
      in
      List.iteri
        (fun i g ->
           (* Sample the trace: every 8th gate, plus the switch region. *)
           let near_switch =
             match r.Driver.converted_at with
             | Some k -> abs (g.Engine.index - k) <= 2
             | None -> false
           in
           if i mod 8 = 0 || near_switch || g.Engine.phase = Engine.Conversion then
             emit g)
        r.Driver.trace;
      Report.table
        ~title:
          (Printf.sprintf "Figure 3 trace on %s (%d gates, sampled)" c.Circuit.name
             (Circuit.num_gates c))
        ~header:[ "gate"; "op"; "engine"; "seconds"; "DD size"; "EWMA" ]
        (List.rev !rows);
      (match r.Driver.converted_at with
       | Some k ->
         Report.note "conversion fired after gate %d; DD-phase %.3fs, conversion %.4fs, DMAV %.3fs."
           k r.Driver.seconds_dd r.Driver.seconds_convert r.Driver.seconds_dmav
       | None -> Report.note "no conversion occurred (unexpected for this workload)"))
