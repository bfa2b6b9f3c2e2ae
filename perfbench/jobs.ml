(* Seeded job specs for the four benchmark workloads.

   A job spec is one qcs_sched/v1 manifest line with its id, tenant and
   circuit seed pinned. The program only ever receives these lines: the
   cold workloads resolve them with [Manifest.parse_line] (that is where
   the circuit is generated), the serve workload ships them to the daemon
   verbatim. The workload seed picks each circuit's seed and the order of
   the jobs; it never picks the (family, qubits, gates) mix, so a run's
   total work is the same on every seed and only the circuits differ. *)

type workload = Hybrid_deep | Dd_deep | Flat_wide | Serve_stream

let workloads = [ Hybrid_deep; Dd_deep; Flat_wide; Serve_stream ]

let name = function
  | Hybrid_deep -> "hybrid-deep"
  | Dd_deep -> "dd-deep"
  | Flat_wide -> "flat-wide"
  | Serve_stream -> "serve-stream"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* One entry of a workload's mix: family, qubits, gate budget (None for
   the structural families) and manifest overrides. *)
type mix = { family : string; n : int; gates : int option; extra : (string * string) list }

let m ?gates ?(extra = []) family n = { family; n; gates; extra }

(* Pool size: the host's two cores, except for the pure-DD path, which
   runs on one domain and only slows down with an idle second domain
   joining every stop-the-world minor collection. *)
let threads = function Dd_deep -> 1 | Hybrid_deep | Flat_wide | Serve_stream -> 2

(* The per-workload config the manifest lines are resolved against. The
   serve daemon resolves with [Config.default]; its pool is the daemon's. *)
let config = function
  | Hybrid_deep ->
    (* FlatDD's home case: EWMA conversion, DMAV-aware fusion, f64. *)
    { (Config.with_threads 2 Config.default) with Config.fusion = Config.Dmav_aware }
  | Dd_deep ->
    (* The DDSIM column: stay in DD for the whole circuit, one domain. *)
    { (Config.with_threads 1 Config.default) with Config.policy = Config.Never_convert }
  | Flat_wide ->
    (* Flat from the first gate, unfused, with per-gate dense dispatch:
       the rows the f32 engines and the dense kernel are judged on. *)
    { (Config.with_threads 2 Config.default) with
      Config.policy = Config.Convert_at (-1);
      dense_dispatch = true }
  | Serve_stream -> Config.default

let f32 = [ ("precision", "\"f32\"") ]

(* The jobs of one pass. Cold workloads: every job sized to a similar
   run time so the median latency lands inside a cluster, not in a gap
   between job types. Serve: all 11 families at 10-14 qubits, sized so
   the latency distribution has no gap at the median or at p95. *)
let pass_mix ~tiny w =
  match w, tiny with
  | Hybrid_deep, false ->
    [ m "dnn" 16 ~gates:570; m "dnn" 16 ~gates:570;
      m "vqe" 16 ~gates:500; m "vqe" 16 ~gates:500;
      m "supremacy" 15 ~gates:420; m "supremacy" 15 ~gates:420 ]
  | Hybrid_deep, true -> [ m "dnn" 9 ~gates:120; m "vqe" 9 ~gates:100; m "supremacy" 9 ~gates:100 ]
  | Dd_deep, false ->
    (* Circuits whose state DD saturates, so the cost barely depends on
       the seed; supremacy at these sizes does not saturate and varies
       3x from seed to seed. *)
    [ m "dnn" 11 ~gates:130; m "dnn" 11 ~gates:130;
      m "dnn" 10 ~gates:160; m "dnn" 10 ~gates:160;
      m "vqe" 10 ~gates:160; m "vqe" 10 ~gates:160 ]
  | Dd_deep, true -> [ m "dnn" 6 ~gates:40; m "vqe" 6 ~gates:40; m "supremacy" 6 ~gates:40 ]
  | Flat_wide, false ->
    (* f32 runs about 2x slower than f64 here, so the supremacy circuit
       is twice the others: the f64 supremacy job then sits with the
       f32 dnn and qft jobs and the median falls inside that cluster. *)
    List.concat_map
      (fun j -> [ j; { j with extra = f32 } ])
      [ m "dnn" 18 ~gates:150; m "qft" 18; m "supremacy" 18 ~gates:200 ]
  | Flat_wide, true ->
    List.concat_map (fun j -> [ j; { j with extra = f32 } ]) [ m "supremacy" 9 ~gates:60; m "dnn" 8 ~gates:40 ]
  | Serve_stream, false ->
    [ m "dnn" 10; m "dnn" 11; m "dnn" 12; m "dnn" 12 ~extra:f32;
      m "adder" 10; m "adder" 12; m "adder" 12 ~extra:f32; m "adder" 14;
      m "ghz" 10; m "ghz" 12; m "ghz" 13; m "ghz" 14;
      m "vqe" 11; m "vqe" 12 ~extra:f32; m "vqe" 13; m "vqe" 14;
      m "knn" 11; m "knn" 13; m "swaptest" 11; m "swaptest" 13 ~extra:[ ("order", "\"sift\"") ];
      m "supremacy" 10; m "supremacy" 11; m "supremacy" 12 ~extra:[ ("fusion", "\"dmav\"") ];
      m "supremacy" 13 ~gates:300;
      m "qft" 10; m "qft" 12; m "qft" 13 ~extra:[ ("order", "\"sift\"") ]; m "qft" 14;
      m "grover" 10; m "grover" 11; m "grover" 12 ~gates:1500; m "grover" 13 ~gates:1500;
      m "bv" 10; m "bv" 12; m "bv" 13; m "bv" 14;
      m "qpe" 10; m "qpe" 11; m "qpe" 12 ~extra:[ ("fusion", "\"dmav\"") ]; m "qpe" 14 ]
  | Serve_stream, true -> [ m "qft" 5; m "ghz" 6; m "supremacy" 6 ~gates:40; m "bv" 5 ]

let tenants = [| "t0"; "t1" |]

(* A pinned manifest line. Field order is fixed, so equal specs render
   to equal bytes. *)
let line ~id ~tenant ~seed (x : mix) =
  let fields =
    [ ("id", Printf.sprintf "%S" id); ("tenant", Printf.sprintf "%S" tenant);
      ("circuit", Printf.sprintf "%S" x.family); ("n", string_of_int x.n) ]
    @ (match x.gates with Some g -> [ ("gates", string_of_int g) ] | None -> [])
    @ [ ("seed", string_of_int seed) ]
    @ x.extra
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

type spec = { key : int; (* position in the pass, stable across passes *) tenant : string; body : mix; cseed : int }

(* The pass: the workload's mix in a fixed order, each job with a
   seed-derived circuit seed. Tenants alternate along the pass. The order
   stays fixed because in the serve closed loop it decides which jobs run
   beside each other, and so the latency median. *)
let pass ?(tiny = false) w ~seed =
  List.mapi
    (fun k body ->
       { key = k; tenant = tenants.(k mod 2); body; cseed = Rng.derive seed k mod 1_000_000 })
    (pass_mix ~tiny w)

(* Id of job [key] in pass [p]: unique per pass, so a later pass is never
   served from the journal's stored results. *)
let id ~pass:p s = Printf.sprintf "p%d-%d" p s.key

let render ~pass:p s = line ~id:(id ~pass:p s) ~tenant:s.tenant ~seed:s.cseed s.body

(* The job a cold workload's set-up runs once: the first entry of the
   unshuffled mix, so every seed warms up on the same kind of job. *)
let warm_job ?(tiny = false) w ~seed =
  line ~id:"warmup" ~tenant:tenants.(0) ~seed:(Rng.derive seed 999 mod 1_000_000)
    (List.hd (pass_mix ~tiny w))

(* The serve warm-up, as (tenant, id, line): one small job per (tenant,
   qubit count) seen in the pass, so the daemon's warm cache holds a
   handle for every key the timed stream will ask for. *)
let warmup ?(tiny = false) w ~seed =
  let ns = List.sort_uniq compare (List.map (fun x -> x.n) (pass_mix ~tiny w)) in
  List.concat_map
    (fun n ->
       List.mapi
         (fun t tenant ->
            let id = Printf.sprintf "w%d-%d" n t in
            (tenant, id, line ~id ~tenant ~seed:(Rng.derive seed (1000 + n)) (m "qft" n)))
         (Array.to_list tenants))
    ns
