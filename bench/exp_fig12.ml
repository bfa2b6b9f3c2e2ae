(* Figure 12 — strong scaling of FlatDD and the array baseline over the
   thread count.

   On a multi-core host the wall-clock column reproduces the paper's
   curve (saturating around 16 threads). On a single-core container the
   wall-clock stays flat, so the table also reports the modeled parallel
   work per thread (max share of DMAV MACs assigned to any worker, ideal =
   1/t), which is machine-independent evidence of the load balance the
   speedup derives from. *)

let modeled_balance (row : Workloads.row) threads =
  (* Build the DMAV-phase gate list and measure the worst thread's share
     of border-level task MACs, averaged over gates. *)
  let c = Workloads.circuit_of row in
  let n = c.Circuit.n in
  let p = Dd.create () in
  let t = Cost.pow2_threads ~n threads in
  let shares = ref [] in
  Array.iter
    (fun op ->
       let m = Mat_dd.of_op p ~n op in
       let tasks = Cost.assign p ~n ~t m in
       let per_thread =
         Array.map
           (fun lst ->
              List.fold_left
                (fun acc (task : Cost.task) ->
                   acc +. Cost.mac_count p (Dd.munit task.node))
                0.0 lst)
           tasks
       in
       let total = Array.fold_left ( +. ) 0.0 per_thread in
       let worst = Array.fold_left Float.max 0.0 per_thread in
       if total > 0.0 then shares := (worst /. total) :: !shares)
    c.Circuit.ops;
  if !shares = [] then 1.0 else Stats.mean !shares

let run_one (row : Workloads.row) =
  let c = Workloads.circuit_of row in
  let rows =
    List.map
      (fun threads ->
         Pool.with_pool threads (fun pool ->
             let cfg = { Config.default with Config.threads = threads } in
             let fr = Driver.run ~pool cfg c in
             let qr = Workloads.run_qpp ~pool c in
             let share = modeled_balance row threads in
             [ string_of_int threads;
               Report.time_s fr.Driver.seconds_total;
               Report.time_s qr.Workloads.seconds;
               Printf.sprintf "1/%.2f" (1.0 /. share);
               Printf.sprintf "%d" (Cost.pow2_threads ~n:row.Workloads.n threads) ]))
      Workloads.thread_sweep
  in
  Report.table
    ~title:
      (Printf.sprintf "Figure 12: runtime vs threads — %s (%d gates)" c.Circuit.name
         (Circuit.num_gates c))
    ~header:[ "threads"; "FlatDD t(s)"; "Q++ t(s)"; "max work share"; "t used" ]
    rows

let run () =
  Report.section "Figure 12: thread scalability";
  run_one (Workloads.row Suite.Supremacy 13 ~gates:450);
  run_one (Workloads.row Suite.Knn 15);
  Report.note
    "on a single-core container wall-clock cannot scale; 'max work share' shows the \
     modeled per-thread load (ideal 1/t) that yields the paper's curve on real cores."
