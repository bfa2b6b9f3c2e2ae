(* Calibration of the gate price ([Cost.dispatch] and fusion's price,
   [Cost.local_price] and [Cost.priced]): the
   per-MAC price of a canonical identity node, the local leg's
   per-amplitude rates, and the regret of the kernel picks.

   The jobs are hybrid-deep's three families with the circuit seeds the
   repository benchmark (perfbench) derives for its seed 1: dnn-16/570,
   vqe-16/500 and supremacy-15/420, run the way hybrid-deep runs them (EWMA
   conversion, two threads). Their flat-phase gates are rebuilt as matrix
   DDs in a fresh package, once unfused and once fused at the constants.
   Every gate is applied on a 1-worker and a 2-worker pool with each
   kernel it can take: the uncached Run, the cached Run (Algorithm 2),
   the local leg on the forms the flat phase runs there (an unfused op's
   [Flat_gate.local_of_op], a fused gate's [Local] output of
   [Fusion.dmav_aware]); best of 5 per gate and kernel.

   - A least-squares fit of Run time = c₀ + a·(recursion MACs) +
     b·(stripe MACs) + v·(visits), with and without c₀ and with and
     without the visits column, gives the two per-MAC rates and the
     per-visit rate at each thread count, where a visit is one call of
     the Run's recursion on an internal node other than an identity or
     a level-0 node; [b/a] is the identity price and [v/a] the visit
     price the data supports.
   - The local leg's times per amplitude it walks (a fit through the
     origin; a controlled form walks the amplitudes under its controls),
     divided by the Run's time per priced MAC, are its rates in the Run's
     priced MACs, the unit of [Cost.dispatch].
   - The regret: the gates, and the time, where the kernel a rule picks
     is slower than the fastest measured of local, Run and cached, for
     [Cost.dispatch] and for the paper's rule (Eq. 5/6 over plain MACs,
     the local leg only for an uncached pick).
   - Sweeps re-fuse the jobs at a grid of identity prices and of local
     rates and print the ranges over which every fused stream is the one
     the constants produce. *)

type job = {
  label : string;
  n : int;
  ops : Circuit.op list;
  mats : Dd.medge list;
  package : Dd.package;
}

(* perfbench's pass order: dnn at key 0, vqe at 2, supremacy at 4. *)
let specs = [ (Suite.Dnn, 16, 570, 0); (Suite.Vqe, 16, 500, 2); (Suite.Supremacy, 15, 420, 4) ]

let hybrid_config =
  { (Config.with_threads 2 Config.default) with Config.fusion = Config.Dmav_aware }

let flat_job pool (fam, n, gates, key) =
  let c = Suite.generate ~seed:(Rng.derive 1 key mod 1_000_000) ~gates fam ~n in
  let r = Driver.run ~pool hybrid_config c in
  let first = match r.Driver.converted_at with Some k -> k + 1 | None -> Circuit.num_gates c in
  let ops = Array.to_list (Array.sub c.Circuit.ops first (Circuit.num_gates c - first)) in
  let package = Dd.create () in
  { label = Printf.sprintf "%s-%d" (Suite.family_name fam) n;
    n;
    ops;
    mats = List.map (Mat_dd.of_op package ~n) ops;
    package }

(* The flat phase's scan over the job's ops; its output gates as matrix
   DDs in the job's package, for the Run programs and the timings. *)
let fuse ?identity_price ?local_rate j =
  Fusion.dmav_aware ?identity_price ?local_rate j.package ~n:j.n j.ops

let fused ?identity_price ?local_rate j =
  List.map (Fusion.to_dd j.package ~n:j.n) (fst (fuse ?identity_price ?local_rate j))

(* The visits the Run stub makes in batches: every visit below a
   pure-replication node ((e, 0, 0, e') or (0, e, e', 0) on one target),
   which [run_batch_] walks once for up to 64 paths. Counted per path,
   like [Dd.priced_paths]'s visits, so the rest are [run_node] calls. *)
let batched_visits p m =
  let idents = Hashtbl.create 16 in
  let identity l =
    match Hashtbl.find_opt idents l with
    | Some i -> i
    | None ->
      let i = Dd.mtgt (Mat_dd.identity p (l + 1)) in
      Hashtbl.replace idents l i;
      i
  in
  let memo = Hashtbl.create 64 in
  (* [go node batched]: the visits of one path into [node] that fall in
     a batch. *)
  let rec go node batched =
    let l = if node = Dd.mterminal then -1 else Dd.mlevel p node in
    if l <= 0 || node = identity l then 0.0
    else
      match Hashtbl.find_opt memo (Dd.mid node, batched) with
      | Some v -> v
      | None ->
        let c a b = Dd.mchild p node a b in
        let replication =
          let same e e' =
            (not (Dd.medge_is_zero e)) && (not (Dd.medge_is_zero e')) && Dd.mtgt e = Dd.mtgt e'
          in
          (Dd.medge_is_zero (c 0 1) && Dd.medge_is_zero (c 1 0) && same (c 0 0) (c 1 1))
          || (Dd.medge_is_zero (c 0 0) && Dd.medge_is_zero (c 1 1) && same (c 0 1) (c 1 0))
        in
        let below = batched || replication in
        let v =
          (if batched then 1.0 else 0.0)
          +. List.fold_left
               (fun acc (a, b) ->
                  let e = c a b in
                  if Dd.medge_is_zero e then acc else acc +. go (Dd.mtgt e) below)
               0.0 [ (0, 0); (0, 1); (1, 0); (1, 1) ]
        in
        Hashtbl.replace memo (Dd.mid node, batched) v;
        v
  in
  if Dd.medge_is_zero m then 0.0 else go (Dd.mtgt m) false

let elapsed_ns f =
  let t0 = Timer.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Timer.now_ns ()) t0)

(* Least squares for y = Σ βᵢ·xᵢ over the columns [row x], by Gaussian
   elimination with partial pivoting on the normal equations: the
   coefficients and the root-mean-square residual. *)
let fit row samples =
  let k = Array.length (row (List.hd samples |> fst)) in
  let s = Array.make_matrix k (k + 1) 0.0 in
  List.iter
    (fun (x, y) ->
       let r = row x in
       for i = 0 to k - 1 do
         for j = 0 to k - 1 do
           s.(i).(j) <- s.(i).(j) +. (r.(i) *. r.(j))
         done;
         s.(i).(k) <- s.(i).(k) +. (r.(i) *. y)
       done)
    samples;
  for c = 0 to k - 1 do
    let piv = ref c in
    for r = c + 1 to k - 1 do
      if Float.abs s.(r).(c) > Float.abs s.(!piv).(c) then piv := r
    done;
    let tmp = s.(c) in
    s.(c) <- s.(!piv);
    s.(!piv) <- tmp;
    for r = 0 to k - 1 do
      if r <> c then begin
        let f = s.(r).(c) /. s.(c).(c) in
        for j = c to k do
          s.(r).(j) <- s.(r).(j) -. (f *. s.(c).(j))
        done
      end
    done
  done;
  let beta = Array.init k (fun i -> s.(i).(k) /. s.(i).(i)) in
  let sq =
    List.fold_left
      (fun acc (x, y) ->
         let r = row x in
         let e = ref y in
         Array.iteri (fun i b -> e := !e -. (b *. r.(i))) beta;
         acc +. (!e *. !e))
      0.0 samples
  in
  (beta, sqrt (sq /. float_of_int (List.length samples)))

(* y = ρ·x through the origin. *)
let slope xys =
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0.0 xys in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0.0 xys in
  sxy /. sxx

(* Best times per kernel, indexed by pool (0: one worker, 1: two);
   [nan] where the gate cannot take the kernel. *)
type sample = {
  job : job;
  mat : Dd.medge;
  op : Circuit.op option;    (* the unfused op; [None] for a fused gate *)
  support : int option;      (* the local form's support; [None]: wide *)
  controls : int;            (* the local form's controls *)
  paths : Dd.paths;          (* recursion MACs, stripe MACs, Run calls *)
  batched : float;           (* the part of the visits made in batches *)
  run : float array;
  cached : float array;
  local : float array;
}

let fused_gate x = x.op = None

(* Every unfused gate of each job and every gate fused at the constants,
   on every kernel it can take. Each of 5 rounds makes one pass over the
   job's gates per kernel on the 1-worker pool, then on the 2-worker
   pool, so the gates run back to back as in a flat phase while load
   drift on the host hits every kernel and thread count alike; best of
   the 5 rounds per gate. The Run programs and local forms are compiled
   before the rounds, as the flat phase's planner does; the timed call is
   what the executor runs per gate. *)
let timed_samples pools jobs =
  List.concat_map
    (fun j ->
       let dim = 1 lsl j.n in
       let v = Buf.init dim (fun _ -> Cnum.of_float (1.0 /. sqrt (float_of_int dim))) in
       let w = Buf.create dim in
       (* Per gate: the unfused op, its DD for the Run programs, and the
          local form the flat phase runs it on, if any. *)
       let gates =
         Array.of_list
           (List.map2 (fun op m -> (Some op, m, Some (Flat_gate.local_of_op ~n:j.n op))) j.ops j.mats
            @ List.map
                (function
                  | Fusion.Local l -> (None, Flat_gate.local_dd j.package ~n:j.n l, Some l)
                  | Fusion.Wide m -> (None, m, None))
                (fst (fuse j)))
       in
       let best () = Array.init (Array.length gates) (fun _ -> Array.make 2 nan) in
       let run = best () and cached = best () and local = best () in
       let keep tbl k i ns =
         let b = tbl.(k).(i) in
         tbl.(k).(i) <- (if Float.is_nan b then ns else Float.min b ns)
       in
       let compiled pool ~cached =
         Array.map
           (fun (_, m, _) ->
              Flat_gate.program j.package ~n:j.n ~cached
                (Cost.breakdown j.package ~n:j.n ~threads:(Pool.size pool) m))
           gates
       in
       let progs = List.map (fun pool -> (compiled pool ~cached:false, compiled pool ~cached:true)) pools in
       for _ = 1 to 5 do
         List.iteri
           (fun i pool ->
              let uncached_progs, cached_progs = List.nth progs i in
              Array.iteri
                (fun k g -> keep run k i (elapsed_ns (fun () -> Dmav.run ~pool g ~v ~w)))
                uncached_progs;
              Array.iteri
                (fun k g -> keep cached k i (elapsed_ns (fun () -> Dmav.run ~pool g ~v ~w)))
                cached_progs;
              Array.iteri
                (fun k (_, _, form) ->
                   match form with
                   | Some (l : Flat_gate.local) ->
                     (* A one-gate run, as the flat phase runs a local gate. *)
                     let g = Flat_gate.of_local ~n:j.n ~threads:(Pool.size pool) l in
                     keep local k i (elapsed_ns (fun () -> Dmav.exec ~pool g ~v ~w:(fun () -> w)))
                   | None -> ())
                gates)
           pools
       done;
       Array.to_list
         (Array.mapi
            (fun k (op, m, form) ->
               { job = j; mat = m; op;
                 support = Option.map (fun (l : Flat_gate.local) -> l.Flat_gate.support) form;
                 controls =
                   (match form with Some (l : Flat_gate.local) -> l.Flat_gate.controls | None -> 0);
                 paths = Dd.priced_paths j.package m; batched = batched_visits j.package m;
                 run = run.(k); cached = cached.(k); local = local.(k) })
            gates))
    jobs

let priced x = Cost.priced x.paths

(* The paper's pick, as the flat phase made it before the local leg was
   priced: Eq. 5 against Eq. 6 over plain MACs, the local leg only for an
   uncached pick. *)
let paper_pick x ~threads =
  let n = x.job.n in
  let b = Cost.breakdown x.job.package ~n ~threads x.mat in
  let t = float_of_int (Cost.pow2_threads ~n threads) in
  let c1 = b.Cost.k1 /. t in
  let c2 =
    (b.Cost.k2 /. t)
    +. (Float.ldexp 1.0 n /. (float_of_int Cost.simd_width *. t)
        *. ((float_of_int b.Cost.hits /. t) +. float_of_int b.Cost.buffers))
  in
  if c2 < c1 then Cost.Dmav_cached else if x.support <> None then Cost.Dmav_local else Cost.Dmav_uncached

(* The flat phase's pick: a gate with a form takes the local leg, a
   wide gate the cheaper of the Run and Algorithm 2 on its DD. *)
let price_pick x ~threads =
  let n = x.job.n in
  match x.support with
  | Some _ -> Cost.Dmav_local
  | None -> (Cost.dispatch ~n (Cost.breakdown x.job.package ~n ~threads x.mat)).Cost.kernel

let measured x i = function
  | Cost.Dmav_local -> x.local.(i)
  | Cost.Dmav_uncached -> x.run.(i)
  | Cost.Dmav_cached -> x.cached.(i)
  | Cost.Dense_direct -> nan

let fastest x i =
  List.fold_left
    (fun acc k -> let ns = measured x i k in if Float.is_nan ns then acc else Float.min acc ns)
    infinity [ Cost.Dmav_local; Cost.Dmav_uncached; Cost.Dmav_cached ]

let rate_rows samples =
  List.concat_map
    (fun (i, threads) ->
       (* The Run's time per priced MAC over every gate: the unit. *)
       let run_ns = List.fold_left (fun acc x -> acc +. x.run.(i)) 0.0 samples in
       let unit = run_ns /. List.fold_left (fun acc x -> acc +. priced x) 0.0 samples in
       let row kernel shape pick amps =
         let xys =
           List.filter_map
             (fun x -> match pick x with Some ns -> Some (amps x, ns) | None -> None)
             samples
         in
         if xys = [] then None
         else
           let rho = slope xys in
           Some
             [ string_of_int threads; kernel; shape; string_of_int (List.length xys);
               Printf.sprintf "%.3f" rho; Printf.sprintf "%.2f" unit;
               Printf.sprintf "%.3f" (rho /. unit) ]
       in
       let walked x = Float.ldexp 1.0 (x.job.n - Bits.popcount x.controls) in
       let local s c x =
         match x.support with
         | Some m when Bits.popcount m = s && Bits.popcount x.controls = c
                       && not (Float.is_nan x.local.(i)) -> Some x.local.(i)
         | _ -> None
       in
       List.filter_map Fun.id
         [ row "local" "support 1" (local 1 0) walked;
           row "local" "support 2" (local 2 0) walked;
           row "local" "support 1, 1 control" (local 1 1) walked ])
    [ (0, 1); (1, 2) ]

let regret_rows samples =
  List.concat_map
    (fun (i, threads) ->
       List.concat_map
         (fun (set, keep) ->
            let xs = List.filter keep samples in
            List.map
              (fun (rule, pick) ->
                 let picks = List.map (fun x -> (x, pick x ~threads)) xs in
                 let count k = List.length (List.filter (fun (_, p) -> p = k) picks) in
                 let regret =
                   List.filter (fun (x, k) -> measured x i k > 1.05 *. fastest x i) picks
                 in
                 let ms f = List.fold_left (fun acc e -> acc +. f e) 0.0 picks /. 1e6 in
                 [ string_of_int threads; set; rule; string_of_int (List.length xs);
                   Printf.sprintf "%d/%d/%d" (count Cost.Dmav_local) (count Cost.Dmav_uncached) (count Cost.Dmav_cached);
                   string_of_int (List.length regret);
                   Printf.sprintf "%.2f" (ms (fun (x, k) -> measured x i k -. fastest x i));
                   Printf.sprintf "%.2f" (ms (fun (x, k) -> measured x i k));
                   Printf.sprintf "%.2f" (ms (fun (x, _) -> fastest x i)) ])
              [ ("paper", paper_pick); ("Cost.dispatch", price_pick) ])
         [ ("unfused", fun x -> not (fused_gate x)); ("fused", fused_gate) ])
    [ (0, 1); (1, 2) ]

(* Walk a grid away from a constant in both directions while every job's
   fused stream stays the constant's. *)
let reach ~agrees ~lo ~hi price step =
  let rec go price =
    let next = price +. step in
    if next < lo || next > hi || not (agrees next) then price else go next
  in
  go price

let run () =
  Report.section "fusion_price: the gate price of DMAV-aware fusion and kernel dispatch";
  let jobs = Pool.with_pool 2 (fun pool -> List.map (flat_job pool) specs) in
  let never_local = 1e9 in
  Report.table
    ~title:
      "flat-phase gates per job (unfused / fused: identity price 1.0, local leg unpriced, \
       constants), and the constants' products (2x2/4x4 matrix, DDMM)"
    ~header:[ "job"; "flat gates"; "fused @1.0"; "unpriced local"; "fused"; "narrow"; "DDMM" ]
    (List.map
       (fun j ->
          let out, st = fuse j in
          [ j.label;
            string_of_int (List.length j.mats);
            string_of_int (List.length (fused ~identity_price:1.0 ~local_rate:never_local j));
            string_of_int (List.length (fused ~local_rate:never_local j));
            string_of_int (List.length out);
            string_of_int st.Fusion.narrow_products;
            string_of_int st.Fusion.ddmm_calls ])
       jobs);
  let samples =
    Pool.with_pool 1 (fun p1 -> Pool.with_pool 2 (fun p2 -> timed_samples [ p1; p2 ] jobs))
  in
  let rows =
    List.concat_map
      (fun (threads, ns) ->
         let data = List.map (fun x -> (x, ns x)) samples in
         List.map
           (fun (kind, row) ->
              let beta, rms = fit row data in
              (* The coefficients in (c₀, a, b, v) order, 0 where the
                 fit has no such column. *)
              let ip = Cost.identity_price in
              let c0, a, b, v =
                match kind with
                | `C0_visits -> (beta.(0), beta.(1), beta.(2), beta.(3))
                | `Visits -> (0.0, beta.(0), beta.(1), beta.(2))
                | `Priced_visits | `Batched -> (beta.(0), beta.(1), ip *. beta.(1), beta.(2))
                | `C0 -> (beta.(0), beta.(1), beta.(2), 0.0)
                | `Macs -> (0.0, beta.(0), beta.(1), 0.0)
              in
              [ string_of_int threads;
                string_of_int (List.length data);
                (match kind with
                 | `C0_visits -> "c0 + a r + b s + v n"
                 | `Visits -> "a r + b s + v n"
                 | `Priced_visits -> Printf.sprintf "c0 + a (r + %g s) + v n" ip
                 | `Batched ->
                   Printf.sprintf "c0 + a (r + %g s) + v n_call + %.2f n_batch" ip
                     (beta.(3) /. beta.(1))
                 | `C0 -> "c0 + a r + b s"
                 | `Macs -> "a r + b s");
                Printf.sprintf "%.1f" (c0 /. 1e3);
                Printf.sprintf "%.2f" a;
                Printf.sprintf "%.2f" b;
                Printf.sprintf "%.2f" v;
                Printf.sprintf "%.3f" (b /. a);
                Printf.sprintf "%.2f" (v /. a);
                Printf.sprintf "%.1f" (rms /. 1e3) ])
           (let open Dd in
            let r x = x.paths.terminal and s x = x.paths.stripe and v x = x.paths.visits in
            let priced x = r x +. (Cost.identity_price *. s x) in
            [ (`C0_visits, fun x -> [| 1.0; r x; s x; v x |]);
              (`Visits, fun x -> [| r x; s x; v x |]);
              (`Priced_visits, fun x -> [| 1.0; priced x; v x |]);
              (`Batched, fun x -> [| 1.0; priced x; v x -. x.batched; x.batched |]);
              (`C0, fun x -> [| 1.0; r x; s x |]);
              (`Macs, fun x -> [| r x; s x |]) ]))
      [ (1, fun x -> x.run.(0)); (2, fun x -> x.run.(1)) ]
  in
  Report.table
    ~title:
      "uncached DMAV time (best of 5) against recursion MACs r, stripe MACs s and Run visits n"
    ~header:
      [ "threads"; "applications"; "fit"; "c0 us"; "a ns/MAC"; "b ns/MAC"; "v ns/visit"; "b/a";
        "v/a"; "rms us" ]
    rows;
  Report.note "constants: identity price %g, visit price %g" Cost.identity_price Cost.visit_price;
  Report.table
    ~title:"local leg: time per amplitude walked (fit through 0) over the Run's time per priced MAC"
    ~header:[ "threads"; "kernel"; "gates"; "n"; "ns/amp"; "Run ns/priced MAC"; "rate" ]
    (rate_rows samples);
  Report.note "constants: local leg %g (support 1) and %g (support 2)"
    (Cost.local_rate ~support:1) (Cost.local_rate ~support:3);
  Report.table
    ~title:
      "regret: picks (local/Run/cached) and gates whose pick ran >5% slower than the fastest \
       measured of the three (ms summed over gates, best of 5)"
    ~header:
      [ "threads"; "gates"; "rule"; "n"; "picks L/R/C"; "regret gates"; "regret ms"; "picked ms";
        "fastest ms" ]
    (regret_rows samples);
  let reference = List.map (fun j -> fused j) jobs in
  let agrees f price = List.for_all2 (fun j r -> f j price = r) jobs reference in
  let by_identity = agrees (fun j price -> fused ~identity_price:price j) in
  Report.note
    "fused streams of all three jobs equal the constants' for every identity price in [%.2f, %.2f] (grid 0.05 .. 1.00)"
    (reach ~agrees:by_identity ~lo:0.025 ~hi:1.025 Cost.identity_price (-0.05))
    (reach ~agrees:by_identity ~lo:0.025 ~hi:1.025 Cost.identity_price 0.05);
  let rate = Cost.local_rate ~support:1 in
  let by_local = agrees (fun j price -> fused ~local_rate:price j) in
  if by_local rate then
    Report.note
      "fused streams of all three jobs equal the constants' for every local rate in [%.2f, %.2f] (grid 0.01 .. 0.24)"
      (reach ~agrees:by_local ~lo:0.005 ~hi:0.245 rate (-0.01))
      (reach ~agrees:by_local ~lo:0.005 ~hi:0.245 rate 0.01)
  else Report.note "one local rate for both supports changes the fused streams"
