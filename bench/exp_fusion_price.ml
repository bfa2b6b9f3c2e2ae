(* Calibration of [Cost.identity_price], the per-MAC price of a canonical
   identity node in DMAV-aware fusion's cost.

   The jobs are hybrid-deep's three families with the circuit seeds the
   repository benchmark (perfbench) derives for its seed 1: dnn-16/570,
   vqe-16/500 and supremacy-15/420, run the way hybrid-deep runs them (EWMA
   conversion, two threads). Their flat-phase gates are rebuilt as matrix
   DDs in a fresh package, once unfused and once fused at the constant's
   price. Every gate is applied with the uncached kernel on a 1-worker
   and a 2-worker pool, best of 5, and a least-squares fit of
   time = c₀ + a·(recursion MACs) + b·(stripe MACs), with and without
   c₀, gives the two per-MAC rates at each thread count; [b/a] is the
   price the data supports. The fused gates' summed times give the
   flat phase's thread scaling. The sweep then re-fuses the jobs at a
   grid of prices and prints the range over which every fused stream is
   the one the constant produces. *)

type job = { label : string; n : int; mats : Dd.medge list; package : Dd.package }

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
    mats = List.map (Mat_dd.of_op package ~n) ops;
    package }

let fused ?identity_price j = fst (Fusion.dmav_aware ?identity_price j.package j.mats)

(* Recursion and stripe MACs of one uncached application. *)
let mac_split p m =
  let stripe = Dd.priced_paths p ~terminal:0.0 ~identity:1.0 m in
  (Cost.mac_count p m -. stripe, stripe)

let elapsed_ns f =
  let t0 = Timer.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Timer.now_ns ()) t0)

(* Least squares for y = c₀ + a·x₁ + b·x₂ through the 3×3 normal
   equations (Cramer's rule), and for y = a·x₁ + b·x₂ through the 2×2
   system of the MAC columns alone. Returns [(c₀, a, b)] for each. *)
let fit samples =
  let s = Array.make_matrix 3 4 0.0 in
  List.iter
    (fun (x1, x2, y) ->
       let row = [| 1.0; x1; x2 |] in
       for i = 0 to 2 do
         for j = 0 to 2 do
           s.(i).(j) <- s.(i).(j) +. (row.(i) *. row.(j))
         done;
         s.(i).(3) <- s.(i).(3) +. (row.(i) *. y)
       done)
    samples;
  let det m =
    (m.(0).(0) *. ((m.(1).(1) *. m.(2).(2)) -. (m.(1).(2) *. m.(2).(1))))
    -. (m.(0).(1) *. ((m.(1).(0) *. m.(2).(2)) -. (m.(1).(2) *. m.(2).(0))))
    +. (m.(0).(2) *. ((m.(1).(0) *. m.(2).(1)) -. (m.(1).(1) *. m.(2).(0))))
  in
  let d = det (Array.map (fun r -> Array.sub r 0 3) s) in
  let solve k = det (Array.map (fun r -> Array.init 3 (fun j -> if j = k then r.(3) else r.(j))) s) /. d in
  let d2 = (s.(1).(1) *. s.(2).(2)) -. (s.(1).(2) *. s.(2).(1)) in
  let a0 = ((s.(1).(3) *. s.(2).(2)) -. (s.(1).(2) *. s.(2).(3))) /. d2 in
  let b0 = ((s.(1).(1) *. s.(2).(3)) -. (s.(2).(1) *. s.(1).(3))) /. d2 in
  ((solve 0, solve 1, solve 2), (0.0, a0, b0))

type sample = {
  recursion : float;   (* MACs the Run recursion makes *)
  stripe : float;      (* MACs under identity stripes *)
  ns1 : float;         (* best uncached time on a 1-worker pool *)
  ns2 : float;         (* and on a 2-worker pool *)
  fused_gate : bool;
}

(* Every unfused gate of each job and every gate fused at the constant's
   price, applied uncached. Each of 5 rounds makes one pass over the
   job's gates on the 1-worker pool, then one on the 2-worker pool, so
   the gates run back to back as in a flat phase while load drift on the
   host hits both thread counts alike; best of the 5 rounds per gate. *)
let timed_samples p1 p2 jobs =
  List.map
    (fun j ->
       let dim = 1 lsl j.n in
       let v = Buf.init dim (fun _ -> Cnum.of_float (1.0 /. sqrt (float_of_int dim))) in
       let w = Buf.create dim in
       let gates =
         Array.of_list (List.map (fun m -> (false, m)) j.mats @ List.map (fun m -> (true, m)) (fused j))
       in
       let best1 = Array.make (Array.length gates) infinity in
       let best2 = Array.make (Array.length gates) infinity in
       let pass pool best =
         Array.iteri
           (fun k (_, m) ->
              let ns = elapsed_ns (fun () -> Dmav.apply_nocache j.package ~pool ~n:j.n m ~v ~w) in
              best.(k) <- Float.min best.(k) ns)
           gates
       in
       for _ = 1 to 5 do
         pass p1 best1;
         pass p2 best2
       done;
       Array.to_list
         (Array.mapi
            (fun k (fused_gate, m) ->
               let recursion, stripe = mac_split j.package m in
               { recursion; stripe; ns1 = best1.(k); ns2 = best2.(k); fused_gate })
            gates))
    jobs

let run () =
  Report.section "fusion_price: the identity-stripe MAC price of DMAV-aware fusion";
  let jobs = Pool.with_pool 2 (fun pool -> List.map (flat_job pool) specs) in
  Report.table ~title:"flat-phase gates per job (unfused / fused at price 1.0 / at the constant)"
    ~header:[ "job"; "flat gates"; "fused @1.0"; Printf.sprintf "fused @%g" Cost.identity_price ]
    (List.map
       (fun j ->
          [ j.label;
            string_of_int (List.length j.mats);
            string_of_int (List.length (fused ~identity_price:1.0 j));
            string_of_int (List.length (fused j)) ])
       jobs);
  let timed = Pool.with_pool 1 (fun p1 -> Pool.with_pool 2 (fun p2 -> timed_samples p1 p2 jobs)) in
  let samples = List.concat timed in
  let rows =
    List.concat_map
      (fun (threads, ns) ->
         let with_c0, through_origin = fit (List.map (fun x -> (x.recursion, x.stripe, ns x)) samples) in
         List.map
           (fun (kind, (c0, a, b)) ->
              [ string_of_int threads;
                string_of_int (List.length samples);
                kind;
                Printf.sprintf "%.1f" (c0 /. 1e3);
                Printf.sprintf "%.2f" a;
                Printf.sprintf "%.2f" b;
                Printf.sprintf "%.3f" (b /. a) ])
           [ ("c0 + a r + b s", with_c0); ("a r + b s", through_origin) ])
      [ (1, fun x -> x.ns1); (2, fun x -> x.ns2) ]
  in
  Report.table
    ~title:"uncached DMAV time (best of 5) against recursion MACs r and stripe MACs s"
    ~header:[ "threads"; "applications"; "fit"; "c0 us"; "a ns/MAC"; "b ns/MAC"; "b/a" ]
    rows;
  let fused_ms ns per_job =
    List.fold_left (fun acc x -> if x.fused_gate then acc +. ns x else acc) 0.0 per_job /. 1e6
  in
  Report.table ~title:"summed per-gate time of the fused gates, uncached, best of 5 (ms)"
    ~header:[ "job"; "1 thread"; "2 threads"; "scaling" ]
    (List.map2
       (fun j per_job ->
          let t1 = fused_ms (fun x -> x.ns1) per_job and t2 = fused_ms (fun x -> x.ns2) per_job in
          [ j.label; Printf.sprintf "%.1f" t1; Printf.sprintf "%.1f" t2; Report.speedup (t1 /. t2) ])
       jobs timed);
  let reference = List.map (fun j -> fused j) jobs in
  let agrees price = List.for_all2 (fun j r -> fused ~identity_price:price j = r) jobs reference in
  (* Walk the 0.05 grid away from the constant in both directions while
     every job's fused stream stays the constant's. *)
  let rec reach price step =
    let next = price +. step in
    if next < 0.025 || next > 1.025 || not (agrees next) then price else reach next step
  in
  Report.note
    "fused streams of all three jobs equal the ones at %g for every price in [%.2f, %.2f] (grid 0.05 .. 1.00)"
    Cost.identity_price (reach Cost.identity_price (-0.05)) (reach Cost.identity_price 0.05)
