(* Figure 11 — per-gate runtime of the three engines on an irregular
   circuit: DDSIM's per-gate cost explodes as the state DD densifies,
   while FlatDD switches to DMAV and stays flat, tracking the array
   engine. Reported as cumulative-runtime checkpoints. *)

let checkpoints = [ 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1.0 ]

let cumulative times =
  let acc = ref 0.0 in
  Array.map
    (fun t ->
       acc := !acc +. t;
       !acc)
    times

let sample_at gates cum frac =
  let idx = Int.min (Array.length cum - 1) (int_of_float (frac *. float_of_int gates) - 1) in
  if idx < 0 then 0.0 else cum.(idx)

let run_one pool (row : Workloads.row) =
  let c = Workloads.circuit_of row in
  let gates = Circuit.num_gates c in
  (* FlatDD per-gate times from its trace. *)
  let cfg = { Config.default with Config.threads = Pool.size pool; trace = true } in
  let fr = Driver.run ~pool cfg c in
  let flat_times = Array.make gates 0.0 in
  List.iter
    (fun (g : Engine.gate_record) ->
       if g.Engine.index < gates then
         flat_times.(g.Engine.index) <- flat_times.(g.Engine.index) +. g.Engine.seconds)
    fr.Driver.trace;
  (* DDSIM cumulative times, bounded. *)
  let dr = Workloads.run_dd c in
  (* Array engine per-gate times. *)
  let _, qpp_times = Qpp_kernel.run_traced ~pool c in
  let flat_cum = cumulative flat_times in
  let dd_cum = dr.Workloads.dd_cum in
  let qpp_cum = cumulative qpp_times in
  let rows =
    List.map
      (fun frac ->
         let gate = int_of_float (frac *. float_of_int gates) in
         let dd_val = sample_at gates dd_cum frac in
         let dd_str =
           if dr.Workloads.dd_timed_out && gate > dr.Workloads.dd_gates_done then
             Printf.sprintf "> %.3f" dd_cum.(Int.max 0 (dr.Workloads.dd_gates_done - 1))
           else Printf.sprintf "%.3f" dd_val
         in
         [ string_of_int gate;
           Printf.sprintf "%.3f" (sample_at gates flat_cum frac);
           dd_str;
           Printf.sprintf "%.3f" (sample_at gates qpp_cum frac) ])
      checkpoints
  in
  Report.table
    ~title:
      (Printf.sprintf "Figure 11: cumulative runtime (s) by gate — %s (%d gates)"
         c.Circuit.name gates)
    ~header:[ "gate"; "FlatDD"; "DDSIM"; "Quantum++" ] rows;
  (match fr.Driver.converted_at with
   | Some k -> Report.note "FlatDD converted after gate %d." k
   | None -> Report.note "FlatDD never converted.")

let run () =
  Report.section "Figure 11: per-gate runtime comparison";
  Pool.with_pool Workloads.threads_default (fun pool ->
      run_one pool (Workloads.row Suite.Dnn 12 ~gates:500);
      run_one pool (Workloads.row Suite.Supremacy 12 ~gates:400))
