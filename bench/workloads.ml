(* The benchmark workload catalogue.

   Sizes are scaled down from the paper's 16-31 qubits so the full harness
   completes in minutes on a laptop-class single-core container, while
   preserving each circuit's regular/irregular character. The DD baseline
   gets a per-run time budget; runs that exceed it are reported as
   "> budget", the scaled analogue of the paper's "> 24 h" entries. *)

type row = {
  label : string;
  family : Suite.family;
  n : int;
  gates : int option;
  seed : int;
}

let row ?gates ?(seed = 1) family n =
  { label = Printf.sprintf "%s-%d" (Suite.family_name family) n;
    family;
    n;
    gates;
    seed }

let circuit_of r = Suite.generate ~seed:r.seed ?gates:r.gates r.family ~n:r.n

(* Table 1: the paper's 12 rows (DNN x3, Adder, GHZ, VQE, KNN x2,
   Swap test, Supremacy x3), scaled. *)
let table1 =
  [ row Suite.Dnn 10 ~gates:500;
    row Suite.Dnn 12 ~gates:700;
    row Suite.Dnn 14 ~gates:900;
    row Suite.Adder 18;
    row Suite.Ghz 18;
    row Suite.Vqe 12 ~gates:400;
    row Suite.Knn 13;
    row Suite.Knn 15;
    row Suite.Swap_test 13;
    row Suite.Supremacy 12 ~gates:400;
    row Suite.Supremacy 13 ~gates:450;
    row Suite.Supremacy 14 ~gates:500 ]

(* Table 2: the six deepest circuits (DNN and Supremacy at three sizes),
   with gate counts in the thousands as in the paper. *)
let table2 =
  [ row Suite.Dnn 12 ~gates:2000;
    row Suite.Dnn 14 ~gates:2500;
    row Suite.Dnn 16 ~gates:3000;
    row Suite.Supremacy 12 ~gates:1500;
    row Suite.Supremacy 14 ~gates:1800;
    row Suite.Supremacy 16 ~gates:2000 ]

(* Figure 1: two regular and two irregular circuits. *)
let fig1 =
  [ row Suite.Adder 16;
    row Suite.Ghz 16;
    row Suite.Dnn 12 ~gates:500;
    row Suite.Vqe 12 ~gates:300 ]

(* Figure 13: ten circuits that actually reach the conversion point. *)
let fig13 =
  [ row Suite.Dnn 10 ~gates:400;
    row Suite.Dnn 12 ~gates:500;
    row Suite.Dnn 14 ~gates:600;
    row Suite.Vqe 12 ~gates:300;
    row Suite.Vqe 14 ~gates:300;
    row Suite.Knn 13;
    row Suite.Knn 15;
    row Suite.Swap_test 13;
    row Suite.Supremacy 12 ~gates:400;
    row Suite.Supremacy 14 ~gates:450 ]

(* Figure 14: the six largest irregular circuits. *)
let fig14 =
  [ row Suite.Dnn 10 ~gates:800;
    row Suite.Dnn 12 ~gates:900;
    row Suite.Dnn 14 ~gates:1000;
    row Suite.Supremacy 12 ~gates:700;
    row Suite.Supremacy 13 ~gates:800;
    row Suite.Supremacy 14 ~gates:900 ]

(* Shared budgets and thread counts. *)
let dd_time_limit =
  match Sys.getenv_opt "FLATDD_BENCH_DD_LIMIT" with
  | Some s -> float_of_string s
  | None -> 20.0

let threads_default =
  match Sys.getenv_opt "FLATDD_BENCH_THREADS" with
  | Some s -> int_of_string s
  | None -> 4

let thread_sweep = [ 1; 2; 4; 8; 16 ]

(* The DD baseline (DDSIM): the driver's own run loop with conversion off,
   on one thread, as in the paper. *)
let dd_config = { Config.default with Config.policy = Config.Never_convert; threads = 1 }

(* The final state DD of a pure-DD run, built in [package]. *)
let dd_state package c =
  match (Driver.run ~package dd_config c).Driver.final with
  | Engine.Dd_state { edge; _ } -> edge
  | Engine.Flat_state _ -> invalid_arg "Workloads.dd_state: the run converted"

type dd_run = {
  dd_seconds : float;
  dd_timed_out : bool;
  dd_gates_done : int;
  dd_cum : float array;  (* wall seconds since the start, after each gate done *)
  dd_peak_nodes : int option;  (* [None] when the run timed out *)
  dd_peak_memory_bytes : int;
}

(* The DD baseline under a time budget. The cancel poll runs before every
   gate: it counts the gates done, records the cumulative time of the one
   just finished, and stops the run once the budget is spent. The package
   is ours, so a timed-out row can still report its memory. *)
let run_dd ?(time_limit = dd_time_limit) (c : Circuit.t) =
  let gates = Circuit.num_gates c in
  let cum = Array.make gates 0.0 in
  let polls = ref 0 in
  let package = Dd.create () in
  let t0 = Timer.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9 in
  let cancel () =
    let t = elapsed () in
    if !polls > 0 then cum.(!polls - 1) <- t;
    incr polls;
    t > time_limit
  in
  match Driver.run ~cancel ~package { dd_config with Config.trace = true } c with
  | r ->
    let t = elapsed () in
    if gates > 0 then cum.(gates - 1) <- t;
    { dd_seconds = t;
      dd_timed_out = false;
      dd_gates_done = gates;
      dd_cum = cum;
      dd_peak_nodes =
        Some
          (List.fold_left
             (fun m (g : Engine.gate_record) -> max m g.Engine.dd_size)
             r.Driver.n r.Driver.trace);
      dd_peak_memory_bytes = r.Driver.peak_memory_bytes }
  | exception Driver.Cancelled ->
    { dd_seconds = elapsed ();
      dd_timed_out = true;
      dd_gates_done = !polls - 1;
      dd_cum = cum;
      dd_peak_nodes = None;
      dd_peak_memory_bytes = Dd.memory_bytes package }

(* Run the array baseline (Quantum++-style kernels) under a deadline. *)
type array_run = { seconds : float; timed_out : bool; state : State.t }

let run_qpp ?pool ?time_limit (c : Circuit.t) =
  let st = State.zero_state c.Circuit.n in
  let t0 = Timer.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9 in
  let timed_out = ref false in
  let i = ref 0 in
  let gates = Circuit.num_gates c in
  while !i < gates && not !timed_out do
    Qpp_kernel.op ?pool st c.Circuit.ops.(!i);
    (match time_limit with
     | Some limit when elapsed () > limit -> timed_out := true
     | _ -> ());
    incr i
  done;
  { seconds = elapsed (); timed_out = !timed_out; state = st }

(* Memory accounting for the array baseline: one flat state vector. *)
let qpp_memory_bytes n = Buf.memory_bytes (Buf.create (1 lsl n))
