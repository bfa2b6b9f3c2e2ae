(* Figure 13 — DD→array conversion: FlatDD's parallel converter (with
   load balancing and scalar-multiplication fills) vs the DDSIM-style
   sequential converter, on the state DD exactly as it stands at the
   conversion point, plus the conversion's share of total runtime.

   On one core the wall-clock gap comes only from the work-saving fill
   optimization, so the table also reports the fraction of amplitudes
   produced by fills — the machine-independent part of the speedup —
   and, per converter, nanoseconds per amplitude and the minor words one
   conversion allocates. *)

(* Reproduce the DD phase up to the EWMA trigger and hand back the state
   DD at the moment FlatDD would convert. *)
let state_at_conversion (c : Circuit.t) =
  let n = c.Circuit.n in
  let p = Dd.create () in
  let monitor = Ewma.create ~beta:0.9 ~epsilon:2.0 in
  ignore (Ewma.observe monitor (float_of_int n));
  let state = ref (Vec_dd.zero_state p n) in
  let fired = ref false in
  let i = ref 0 in
  let gates = Circuit.num_gates c in
  while (not !fired) && !i < gates do
    state := Dd.mv p (Mat_dd.of_op p ~n c.Circuit.ops.(!i)) !state;
    if Ewma.observe monitor (float_of_int (Dd.vnode_count p !state)) = Ewma.Convert then
      fired := true;
    incr i
  done;
  (p, !state, !fired, !i)

(* Best of [repeats]: a conversion at these sizes takes 10 µs to 2 ms,
   and single timings on a shared host move 2x. *)
let time_best ~repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let _, dt = Timer.time f in
    if dt < !best then best := dt
  done;
  !best

(* Minor words of one call, after a warm-up call. *)
let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. before

let run () =
  Report.section "Figure 13: parallel vs sequential DD->array conversion";
  Pool.with_pool Workloads.threads_default (fun pool ->
      let rows =
        List.filter_map
          (fun (row : Workloads.row) ->
             let c = Workloads.circuit_of row in
             let n = c.Circuit.n in
             let p, state, fired, at = state_at_conversion c in
             if not fired then None
             else begin
               let seq_t = time_best ~repeats:25 (fun () -> Convert.sequential p ~n state) in
               let par_t =
                 time_best ~repeats:25 (fun () -> Convert.parallel p ~pool ~n state)
               in
               let _, stats = Convert.parallel p ~pool ~n state in
               let amps = float_of_int (1 lsl n) in
               let seq_words = minor_words (fun () -> Convert.sequential p ~n state) in
               let par_words = minor_words (fun () -> Convert.parallel p ~pool ~n state) in
               (* Total runtime context: a full FlatDD run of the same
                  circuit, to express conversion as a share of total. *)
               let cfg = { Config.default with Config.threads = Pool.size pool } in
               let fr = Driver.run ~pool cfg c in
               let total = fr.Driver.seconds_total in
               let fill_frac =
                 float_of_int stats.Convert.filled_amplitudes /. float_of_int (1 lsl n)
               in
               Some
                 [ row.Workloads.label;
                   string_of_int (Dd.vnode_count p state);
                   string_of_int at;
                   Printf.sprintf "%.5f" seq_t;
                   Printf.sprintf "%.5f" par_t;
                   Report.speedup (seq_t /. par_t);
                   Printf.sprintf "%.1f" (1e9 *. seq_t /. amps);
                   Printf.sprintf "%.1f" (1e9 *. par_t /. amps);
                   Printf.sprintf "%.0f" seq_words;
                   Printf.sprintf "%.0f" par_words;
                   string_of_int stats.Convert.tasks;
                   Report.pct fill_frac;
                   Report.pct (seq_t /. (total +. seq_t -. par_t));
                   Report.pct (par_t /. total) ]
             end)
          Workloads.fig13
      in
      Report.table
        ~title:"Figure 13 (conversion measured on the state DD at the EWMA trigger)"
        ~header:
          [ "circuit"; "DD nodes"; "conv@gate"; "seq t(s)"; "par t(s)"; "spd";
            "seq ns/amp"; "par ns/amp"; "seq words"; "par words"; "tasks"; "filled";
            "seq %total"; "par %total" ]
        rows;
      Report.note
        "'filled' = share of amplitudes produced by SIMD-style scalar fills instead of DFS.";
      Report.note
        "'words' = minor words one conversion allocates (on the calling domain).";
      Report.note
        "'%%total' = conversion share of the full FlatDD runtime with each converter.")
