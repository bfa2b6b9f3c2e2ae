(* flatdd — command-line driver.

   Simulates a named benchmark circuit or an OpenQASM 2.0 file with one of
   the three engines (flatdd | dd | array) and reports runtime, memory and
   optionally the per-gate trace and the top amplitudes. *)

open Cmdliner

type engine = Flatdd_engine | Dd_engine | Array_engine

let engine_conv =
  let parse = function
    | "flatdd" -> Ok Flatdd_engine
    | "dd" | "ddsim" -> Ok Dd_engine
    | "array" | "statevec" -> Ok Array_engine
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S (flatdd|dd|array)" s))
  in
  let print fmt e =
    Format.pp_print_string fmt
      (match e with Flatdd_engine -> "flatdd" | Dd_engine -> "dd" | Array_engine -> "array")
  in
  Arg.conv (parse, print)

let fusion_conv =
  let parse = function
    | "none" -> Ok Config.No_fusion
    | "dmav" -> Ok Config.Dmav_aware
    | s ->
      (match int_of_string_opt s with
       | Some k when k >= 1 -> Ok (Config.K_operations k)
       | _ -> Error (`Msg "fusion is none | dmav | <k> (k-operations)"))
  in
  let print fmt = function
    | Config.No_fusion -> Format.pp_print_string fmt "none"
    | Config.Dmav_aware -> Format.pp_print_string fmt "dmav"
    | Config.K_operations k -> Format.fprintf fmt "%d" k
  in
  Arg.conv (parse, print)

let order_conv =
  let parse s =
    match Config.order_of_name s with
    | Some o -> Ok o
    | None -> Error (`Msg "order is none | static")
  in
  let print fmt o = Format.pp_print_string fmt (Config.order_name o) in
  Arg.conv (parse, print)

let precision_conv =
  let parse s =
    match Config.precision_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg "precision is f64 | f32")
  in
  let print fmt p = Format.pp_print_string fmt (Config.precision_name p) in
  Arg.conv (parse, print)

let load_circuit ~name ~qasm ~n ~gates ~seed =
  match qasm with
  | Some path ->
    let prog = Qasm.of_file path in
    prog.Qasm.circuit
  | None ->
    let fam =
      match Suite.family_of_name name with
      | Some f -> f
      | None ->
        raise (Invalid_argument (Printf.sprintf "unknown circuit family %S" name))
    in
    (try Circuit.check_qubits n with Invalid_argument m -> invalid_arg ("-n: " ^ m));
    (try Option.iter Suite.check_gates gates with Invalid_argument m -> invalid_arg ("-g: " ^ m));
    Suite.generate ?gates ~seed fam ~n

(* --top sorts the whole state vector, which a result in DD form is
   converted to first: 2^n amplitudes of 16 B and an 8 B index each,
   24 GiB at this bound. *)
let top_max_qubits = 30

let print_top_amplitudes buf count =
  let dim = Buf.length buf in
  let idx = Array.init dim Fun.id in
  Array.sort
    (fun a b -> compare (Cnum.norm2 (Buf.get buf b)) (Cnum.norm2 (Buf.get buf a)))
    idx;
  Printf.printf "top amplitudes:\n";
  for k = 0 to Int.min (count - 1) (dim - 1) do
    let i = idx.(k) in
    let a = Buf.get buf i in
    if Cnum.norm2 a > 1e-12 then
      Printf.printf "  |%d>  %s  (p=%.6f)\n" i (Cnum.to_string a) (Cnum.norm2 a)
  done

let run engine family qasm n gates seed threads beta epsilon fusion dispatch trace top
    export metrics metrics_json compact_every order precision =
  (* What the run is doing, for the out-of-memory report. *)
  let stage = ref "loading the circuit" in
  try
    if threads < 1 then invalid_arg (Printf.sprintf "-t: threads must be >= 1 (got %d)" threads);
    if not (beta >= 0.0 && beta < 1.0) then
      invalid_arg (Printf.sprintf "--beta: beta must be in [0, 1) (got %g)" beta);
    if not (epsilon > 0.0) then
      invalid_arg (Printf.sprintf "--epsilon: epsilon must be > 0 (got %g)" epsilon);
    if compact_every < 0 then
      invalid_arg
        (Printf.sprintf "--compact-every: compact_every must be >= 0 (got %d)" compact_every);
    let metrics_wanted = metrics || metrics_json <> None in
    if metrics_wanted then begin
      Obs.set_enabled true;
      Obs.Metrics.reset ()
    end;
    let circuit = load_circuit ~name:family ~qasm ~n ~gates ~seed in
    let n = circuit.Circuit.n in
    stage := Printf.sprintf "simulating %s (%d qubits)" circuit.Circuit.name n;
    let top_amplitudes r =
      stage := Printf.sprintf "reading all 2^%d amplitudes for --top %d" n top;
      print_top_amplitudes (Driver.amplitudes r) top
    in
    if top > 0 && n > top_max_qubits then
      invalid_arg
        (Printf.sprintf "--top %d: the top amplitudes of %d qubits need all 2^%d amplitudes \
                         in memory (--top works up to %d qubits; pass --top 0)"
           top n n top_max_qubits);
    Printf.printf "circuit: %s  (%d qubits, %d gates, depth %d)\n" circuit.Circuit.name
      n (Circuit.num_gates circuit) (Circuit.depth circuit);
    (match export with
     | None -> ()
     | Some path ->
       (try
          Qasm_export.to_file path circuit;
          Printf.printf "exported OpenQASM to %s\n" path
        with Qasm_export.Unsupported m ->
          Printf.eprintf "cannot export: %s\n" m));
    if order <> Config.No_order && engine <> Flatdd_engine then
      Printf.eprintf
        "note: --order only applies to the flatdd engine; ignored here\n%!";
    if precision <> Config.F64 && engine = Dd_engine then
      Printf.eprintf
        "note: the dd engine always computes in f64; --precision ignored here\n%!";
    (match engine with
     | Flatdd_engine ->
       let cfg =
         { Config.default with
           Config.threads; beta; epsilon; fusion; trace; dense_dispatch = dispatch;
           order; precision }
       in
       let r, dt = Timer.time (fun () -> Driver.run cfg circuit) in
       Printf.printf "engine: flatdd (%d threads, beta=%.2f eps=%.2f)\n" threads beta
         epsilon;
       (match order with
        | Config.No_order -> ()
        | o -> Printf.printf "order: %s\n" (Config.order_name o));
       (match precision with
        | Config.F64 -> ()
        | p -> Printf.printf "precision: %s\n" (Config.precision_name p));
       Printf.printf "runtime: %.4f s  (dd %.4f | convert %.4f | dmav %.4f)\n" dt
         r.Driver.seconds_dd r.Driver.seconds_convert r.Driver.seconds_dmav;
       (match r.Driver.converted_at with
        | None -> Printf.printf "conversion: never (stayed in DD simulation)\n"
        | Some i ->
          Printf.printf "conversion: after gate %d\n" i;
          Printf.printf "dmav kernels: %d cached, %d uncached (%d local) (%d cache hits)\n"
            r.Driver.dmav_gates_cached r.Driver.dmav_gates_uncached
            r.Driver.dmav_gates_local r.Driver.dmav_cache_hits;
          if dispatch then begin
            let flat_total =
              match r.Driver.fusion_stats with
              | Some s -> s.Fusion.gates_out
              | None -> r.Driver.gates - i - 1
            in
            Printf.printf "dispatch: %d dense direct, %d dmav\n"
              (flat_total - r.Driver.dmav_gates_cached
               - r.Driver.dmav_gates_uncached)
              (r.Driver.dmav_gates_cached + r.Driver.dmav_gates_uncached)
          end);
       Printf.printf "peak memory (modeled): %.2f MB\n"
         (float_of_int r.Driver.peak_memory_bytes /. 1048576.0);
       (match r.Driver.fusion_stats with
        | None -> ()
        | Some s ->
          Printf.printf "fusion: %d -> %d gates, macs %.3g -> %.3g (%d matrix products, %d DDMM)\n"
            s.Fusion.gates_in s.Fusion.gates_out s.Fusion.macs_before s.Fusion.macs_after
            s.Fusion.narrow_products s.Fusion.ddmm_calls);
       if trace then
         List.iter
           (fun g ->
              Printf.printf "  gate %4d %-10s %-10s %.6fs dd=%d ewma=%.1f%s\n"
                g.Engine.index g.Engine.name
                (match g.Engine.phase with
                 | Engine.Dd_phase -> "dd"
                 | Engine.Conversion -> "convert"
                 | Engine.Dmav_phase ->
                   (match g.Engine.dispatch with
                    | Some Engine.Dense_direct -> "dense"
                    | Some Engine.Dmav_cached -> "dmav+cache"
                    | Some Engine.Dmav_local -> "local"
                    | Some Engine.Dmav_uncached | None -> "dmav"))
                g.Engine.seconds g.Engine.dd_size g.Engine.ewma
                (* The model's price of the kernel that ran, beside its
                   measured seconds: per thread, in the Run's priced MACs. *)
                (match g.Engine.price with
                 | None -> ""
                 | Some price ->
                   Printf.sprintf " support=%s price=%.4g"
                     (match g.Engine.support with Some s -> string_of_int s | None -> ">2")
                     price))
           r.Driver.trace;
       if top > 0 then top_amplitudes r
     | Dd_engine ->
       let cfg =
         { Config.default with
           Config.threads = 1; policy = Config.Never_convert; compact_every; trace = true }
       in
       let r, dt = Timer.time (fun () -> Driver.run cfg circuit) in
       let p, edge =
         match r.Driver.final with
         | Engine.Dd_state { package; edge } -> (package, edge)
         | Engine.Flat_state _ -> invalid_arg "dd engine: the run converted"
       in
       Printf.printf "engine: dd (single thread)\n";
       Printf.printf "runtime: %.4f s\n" dt;
       Printf.printf "final DD size: %d nodes (peak %d)\n" (Dd.vnode_count p edge)
         (List.fold_left
            (fun m (g : Engine.gate_record) -> max m g.Engine.dd_size)
            r.Driver.n r.Driver.trace);
       Printf.printf "peak memory (modeled): %.2f MB\n"
         (float_of_int r.Driver.peak_memory_bytes /. 1048576.0);
       Printf.printf "gc: epoch=%d vfree=%d mfree=%d live=%d slots=%d\n" (Dd.epoch p)
         (Dd.vfree_slots p) (Dd.mfree_slots p) (Dd.live_vnodes p) (Dd.cache_slots p);
       if top > 0 then top_amplitudes r
     | Array_engine ->
       let cfg = { Config.default with Config.threads; precision } in
       let r, dt =
         Timer.time (fun () ->
             match precision with
             | Config.F64 -> Driver.run_engine (module Dense_engine) cfg circuit
             | Config.F32 -> Driver.run_engine (module Dense_engine.F32) cfg circuit)
       in
       Printf.printf "engine: array (%d threads, %s)\n" threads
         (Config.precision_name precision);
       Printf.printf "runtime: %.4f s\n" dt;
       Printf.printf "memory: %.2f MB\n"
         (float_of_int r.Driver.peak_memory_bytes /. 1048576.0);
       if top > 0 then top_amplitudes r);
    if metrics_wanted then begin
      let snap = Obs.Metrics.snapshot () in
      (match metrics_json with
       | None -> ()
       | Some path ->
         Obs.Metrics.write_file path snap;
         Printf.printf "metrics written to %s\n" path);
      if metrics then begin
        Printf.printf "\n== metrics (%s) ==\n" Obs.Metrics.schema;
        print_string (Obs.Metrics.to_text snap)
      end
    end;
    0
  with
  | Invalid_argument m | Sys_error m ->
    Printf.eprintf "error: %s\n" m;
    1
  | Qasm.Parse_error _ as e ->
    Format.eprintf "%a@." Qasm.pp_error e;
    1
  | Out_of_memory ->
    Printf.eprintf "error: out of memory while %s\n" !stage;
    1

let cmd =
  let engine =
    Arg.(value & opt engine_conv Flatdd_engine & info [ "e"; "engine" ] ~doc:"Engine: flatdd, dd or array.")
  in
  let family =
    Arg.(value & opt string "supremacy"
         & info [ "c"; "circuit" ] ~doc:"Benchmark circuit family (dnn, adder, ghz, vqe, knn, swaptest, supremacy, qft, grover, bv, qpe).")
  in
  let qasm =
    Arg.(value & opt (some file) None & info [ "qasm" ] ~doc:"Simulate an OpenQASM 2.0 file instead of a generator.")
  in
  let n = Arg.(value & opt int 14 & info [ "n"; "qubits" ] ~doc:"Number of qubits.") in
  let gates =
    Arg.(value & opt (some int) None & info [ "g"; "gates" ] ~doc:"Approximate gate count (1 to 100000) for depth-parameterized families.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Circuit generator seed.") in
  let threads = Arg.(value & opt int 4 & info [ "t"; "threads" ] ~doc:"Worker threads.") in
  let beta = Arg.(value & opt float 0.9 & info [ "beta" ] ~doc:"EWMA smoothing factor.") in
  let epsilon = Arg.(value & opt float 2.0 & info [ "epsilon" ] ~doc:"Conversion threshold.") in
  let fusion =
    Arg.(value & opt fusion_conv Config.No_fusion & info [ "fusion" ] ~doc:"Gate fusion: none, dmav, or an integer k for k-operations.")
  in
  let dispatch =
    Arg.(value & flag
         & info [ "dispatch" ]
             ~doc:"Per-gate kernel dispatch in the flat phase: unfused gates may run on \
                   the dense direct kernel when the cost model favors it over DMAV.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-gate trace.") in
  let top = Arg.(value & opt int 8 & info [ "top" ] ~doc:(Printf.sprintf "Print the k most likely basis states (0 disables; circuits of at most %d qubits)." top_max_qubits)) in
  let export =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~doc:"Write the circuit as OpenQASM 2.0 to this path before simulating.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~doc:"Enable the instrumentation layer and print a metrics summary (counters, cache hit rates, per-phase spans).")
  in
  let metrics_json =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE" ~doc:"Enable the instrumentation layer and write the metrics snapshot as JSON to $(docv).")
  in
  let compact_every =
    Arg.(value & opt int 64
         & info [ "compact-every" ]
             ~doc:"DD engine only: run mark-sweep compaction every N gates (0 \
                   disables; 1 collects after every gate — the gc-soak setting).")
  in
  let order =
    Arg.(value & opt order_conv Config.No_order
         & info [ "order" ]
             ~doc:"Qubit-order policy (flatdd engine): none keeps the circuit \
                   order, static runs the interaction-graph scoring pass before \
                   simulation. Results are always reported in the circuit's own \
                   (logical) basis.")
  in
  let precision =
    Arg.(value & opt precision_conv Config.F64
         & info [ "precision" ]
             ~doc:"Amplitude-plane storage precision: f64 (default; bit-identical \
                   to previous releases) or f32 (half the buffer bytes; the DD \
                   phase, gate matrices and ctable weights stay f64 and rounding \
                   happens only on stores into the flat vectors).")
  in
  let term =
    Term.(const run $ engine $ family $ qasm $ n $ gates $ seed $ threads $ beta
          $ epsilon $ fusion $ dispatch $ trace $ top $ export $ metrics $ metrics_json
          $ compact_every $ order $ precision)
  in
  Cmd.v (Cmd.info "flatdd" ~doc:"Hybrid decision-diagram / flat-array quantum circuit simulator") term

let () = exit (Cmd.eval' cmd)
