(* precision: the f32 amplitude plane against the f64 default.

   Every flat-phase kernel streams the 2ⁿ-entry V/W vectors, so halving
   bytes-per-amplitude halves the bytes moved per
   gate. The PR-10 storage refactor makes that a config switch
   ([Config.precision = F32]): the DD phase, gate matrices and ctable
   weights stay f64; only the flat vectors narrow, with one rounding per
   store. Two workload families:

   - 1q-layers family (the local leg): layers of unfused h/ry on every
     qubit under Convert_at(-1) — the in-place 2x2 walk;
   - suite family: supremacy and qft under forced conversion, unfused —
     their gates' forms on the local leg as well, where the narrowing
     applies to the walk's reads and writes.

   Columns report wall time both ways, the modeled V+W buffer bytes
   (exact arithmetic from the storage kind — the acceptance metric is the
   2.0x ratio), modeled flat-phase traffic (MACs x bytes touched per
   MAC), and max|Δ| between the two final vectors (the f32 result is
   widened back to f64 on extract, so the diff measures rounding only).

   Honest reading on the 2-core host: both precisions run the same C
   stubs with double arithmetic, and f32 adds a widening per load and a
   rounding per store. The local leg is compute-bound at these sizes,
   so halving the bytes does not make it faster; the bytes columns are
   the claim. *)

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

(* Modeled flat-phase traffic: each modeled MAC reads one amplitude and
   accumulates into one — two touches of bytes_per_amp each. *)
let traffic_mb ~macs ~bytes_per_amp =
  Printf.sprintf "%.1f" (macs *. float_of_int (2 * bytes_per_amp) /. 1048576.0)

let vw_bytes_f64 n = 2 * (Storage.F64.buffer_bytes ~len:(1 lsl n) + 24)
let vw_bytes_f32 n = 2 * (Storage.F32.buffer_bytes ~len:(1 lsl n) + 24)

let run_pair ~pool cfg c =
  let r64 = Driver.run ~pool { cfg with Config.precision = Config.F64 } c in
  let r32 = Driver.run ~pool { cfg with Config.precision = Config.F32 } c in
  let d = Buf.max_abs_diff (Driver.amplitudes r64) (Driver.amplitudes r32) in
  (r64, r32, d)

let row_of ~pool cfg label c n =
  let r64, r32, d = run_pair ~pool cfg c in
  [ label;
    string_of_int (Circuit.num_gates c);
    Report.time_s r64.Driver.seconds_dmav;
    Report.time_s r32.Driver.seconds_dmav;
    Report.speedup (r64.Driver.seconds_dmav /. r32.Driver.seconds_dmav);
    Report.mem_mb (vw_bytes_f64 n);
    Report.mem_mb (vw_bytes_f32 n);
    Report.f2 (float_of_int (vw_bytes_f64 n) /. float_of_int (vw_bytes_f32 n));
    traffic_mb ~macs:r64.Driver.modeled_macs ~bytes_per_amp:16;
    traffic_mb ~macs:r32.Driver.modeled_macs ~bytes_per_amp:8;
    Report.sci d ]

let header =
  [ "workload"; "gates"; "f64 t(s)"; "f32 t(s)"; "speedup"; "V+W f64 MB";
    "V+W f32 MB"; "ratio"; "traffic f64 MB"; "traffic f32 MB"; "max|d|" ]

let run () =
  Report.section "precision: f32 amplitude plane vs the f64 default";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let dispatch_rows =
        List.map
          (fun n ->
             let c = unfused_layers n in
             let cfg =
               { Config.default with
                 Config.threads = Pool.size pool;
                 policy = Config.Convert_at (-1) }
             in
             row_of ~pool cfg (Printf.sprintf "1q-layers-%d" n) c n)
          [ 14; 16; 18 ]
      in
      Report.table
        ~title:"unfused 1q layers: the local leg (Convert_at -1)"
        ~header dispatch_rows;
      let suite_rows =
        List.map
          (fun (fam, n, gates) ->
             let c = Suite.generate ~seed:1 ?gates fam ~n in
             let cfg =
               { Config.default with
                 Config.threads = Pool.size pool;
                 policy = Config.Convert_at (-1) }
             in
             row_of ~pool cfg c.Circuit.name c n)
          [ (Suite.Supremacy, 14, Some 500); (Suite.Qft, 14, None) ]
      in
      Report.table
        ~title:"suite family: unfused flat phase (Convert_at -1)"
        ~header suite_rows);
  Report.note
    "V+W and traffic columns are exact/modeled arithmetic (the 2.0x ratio is the \
     claim). Wall time favors f64 or ties: both precisions run the same C stubs \
     in double arithmetic, f32 adds a widening per load and a rounding per store, \
     and the local leg is compute-bound at these sizes.";
  Report.note
    "max|d| is pure f32 rounding: the DD phase and every gate matrix stay f64, \
     and the f32 vector is widened once on extract."
