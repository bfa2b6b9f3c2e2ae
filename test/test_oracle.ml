(* The configuration-product oracle (DESIGN.md §16): one QCheck property.
   A case is a circuit on 1 to 10 qubits (the random mix, or a [Suite]
   family at a size its generator accepts), a full [Config.t] and a pool
   of 1, 2 or 3 domains. [Driver.run]'s amplitudes and norm must match
   [Apply.run], and its report must keep the policy and order contracts.
   A failing case shrinks by dropping gates and qubits and by stepping
   each axis toward its first value. The test output shows how often
   each axis value was drawn; QCHECK_LONG=1 runs 25 times as many cases. *)

(* Over 50,000 cases the worst amplitude error was 6.7e-11 at f64 and
   4.4e-7 at f32 (up to ~80 gates on 10 qubits). *)
let bound = function Config.F64 -> 1e-10 | Config.F32 -> 5e-6

(* At f64, ten times the DD weight tolerance: [Ctable] merges weights
   within [Cnum.tolerance] = 1e-10 per component, and over 25,000 f64
   cases a state left in DD form drifted to |norm - 1| = 1.08e-10. *)
let norm_bound = function Config.F64 -> 10.0 *. Cnum.tolerance | p -> bound p

type case = {
  n : int;
  ops : Circuit.op list;
  source : string;  (** "random" or the Suite circuit the gates came from *)
  cfg : Config.t;
  pool : int;
}

(* --- the config axes ---------------------------------------------------- *)

(* An axis's values by index, the simplest first. *)
type axis = {
  name : string;
  size : int;
  index : Config.t -> int;
  set : int -> Config.t -> Config.t;
  show : Config.t -> string;
}

let axis name values show get set =
  let rec find i v = function [] -> invalid_arg name | x :: xs -> if x = v then i else find (i + 1) v xs in
  { name; size = List.length values;
    index = (fun cfg -> find 0 (get cfg) values);
    set = (fun i cfg -> set cfg (List.nth values i));
    show = (fun cfg -> show (get cfg)) }

let axes =
  let open Config in
  [ axis "precision" [ F64; F32 ] precision_name (fun c -> c.precision)
      (fun c precision -> { c with precision });
    axis "order" [ No_order; Static_order ] order_name (fun c -> c.order)
      (fun c order -> { c with order });
    axis "fusion"
      (No_fusion :: Dmav_aware :: List.init 6 (fun k -> K_operations (k + 1)))
      (function No_fusion -> "none" | Dmav_aware -> "dmav" | K_operations k -> Printf.sprintf "k%d" k)
      (fun c -> c.fusion) (fun c fusion -> { c with fusion });
    axis "dense_dispatch" [ false; true ] string_of_bool (fun c -> c.dense_dispatch)
      (fun c dense_dispatch -> { c with dense_dispatch });
    axis "compact_every" [ 0; 1; 7; 64 ] string_of_int (fun c -> c.compact_every)
      (fun c compact_every -> { c with compact_every });
    axis "epsilon" [ 2.0; 1.01; 4.0; 8.0 ] (Printf.sprintf "%g") (fun c -> c.epsilon)
      (fun c epsilon -> { c with epsilon });
    axis "beta" [ 0.9; 0.0; 0.5 ] (Printf.sprintf "%g") (fun c -> c.beta)
      (fun c beta -> { c with beta }) ]

(* The policy axis depends on the gate count: never < convert before gate
   0 < EWMA < convert after a later gate, the order shrinking follows. *)
let policy_index (cfg : Config.t) =
  match cfg.Config.policy with
  | Config.Never_convert -> 0
  | Config.Convert_at -1 -> 1
  | Config.Ewma_policy -> 2
  | Config.Convert_at _ -> 3

let policy_name (cfg : Config.t) =
  match cfg.Config.policy with
  | Config.Never_convert -> "never"
  | Config.Ewma_policy -> "ewma"
  | Config.Convert_at k -> Printf.sprintf "convert_at %d" k

(* --- generators --------------------------------------------------------- *)

let angle = QCheck.Gen.float_range (-.Float.pi) Float.pi

(* One gate of the random mix on [n] qubits, operands distinct. *)
let op_gen n =
  let open QCheck.Gen in
  let* qs = shuffle_l (List.init n Fun.id) in
  let q = List.nth qs in
  let single ?(controls = []) name matrix target = Circuit.Single { name; matrix; target; controls } in
  let two name matrix q_hi q_lo = Circuit.Two { name; matrix; q_hi; q_lo } in
  oneof
    ([ return (single "h" Gate.h (q 0));
       map3 (fun a b c -> single "u3" (Gate.u3 a b c) (q 0)) angle angle angle;
       return (single "t" Gate.t (q 0));
       map (fun a -> single "ry" (Gate.ry a) (q 0)) angle;
       return (single "sx" Gate.sx (q 0));
       map (fun a -> single "rz" (Gate.rz a) (q 0)) angle ]
     @ (if n < 2 then []
        else
          [ return (single ~controls:[ q 1 ] "cx" Gate.x (q 0));
            map (fun a -> single ~controls:[ q 1 ] "cp" (Gate.phase a) (q 0)) angle;
            map (fun a -> single ~controls:[ q 1 ] "crz" (Gate.rz a) (q 0)) angle;
            return (two "iswap" Gate.iswap (q 0) (q 1));
            map2 (fun t p -> two "fsim" (Gate.fsim t p) (q 0) (q 1)) angle angle ])
     @ (if n < 3 then [] else [ return (single ~controls:[ q 1; q 2 ] "ccx" Gate.x (q 0)) ]))

let random_ops n = QCheck.Gen.(list_size (int_range 0 40) (op_gen n))

(* A Suite circuit, or [None] where its generator rejects [n] qubits;
   depth-parameterized families take a budget of [gates]. *)
let suite_circuit family ~n ~seed ~gates =
  try Some (Suite.generate ~seed ~gates family ~n) with Invalid_argument _ -> None

(* The families whose generators accept [n] qubits. *)
let families =
  Array.init 11 (fun n ->
      List.filter (fun f -> n >= 2 && suite_circuit f ~n ~seed:1 ~gates:1 <> None) Suite.all_families)

let circuit_gen n =
  let open QCheck.Gen in
  let random = map (fun ops -> ("random", ops)) (random_ops n) in
  let suite =
    let* family = oneofl families.(n) and* seed = int_range 1 1000 and* gates = int_range 1 80 in
    let c = Option.get (suite_circuit family ~n ~seed ~gates) in
    return (c.Circuit.name, Array.to_list c.Circuit.ops)
  in
  if n < 2 then random else oneof [ random; suite ]

let case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 10 in
  let* source, ops = circuit_gen n in
  let* pool = int_range 1 3 in
  let* policy =
    oneof
      [ return Config.Ewma_policy;
        return Config.Never_convert;
        map (fun k -> Config.Convert_at k) (int_range (-1) (List.length ops - 1)) ]
  in
  let+ picks = flatten_l (List.map (fun a -> int_bound (a.size - 1)) axes) in
  let cfg = { Config.default with Config.threads = pool; policy } in
  { n; ops; source; pool; cfg = List.fold_left2 (fun cfg a i -> a.set i cfg) cfg axes picks }

(* --- shrinking ---------------------------------------------------------- *)

(* A conversion index stays inside [-1, gates). *)
let with_ops case ops =
  let policy =
    match case.cfg.Config.policy with
    | Config.Convert_at k -> Config.Convert_at (Int.min k (List.length ops - 1))
    | p -> p
  in
  { case with ops; cfg = { case.cfg with Config.policy } }

(* Qubit [q] removed with the gates that touch it; the qubits above it
   move down by one. *)
let drop_qubit case q =
  let m i = if i > q then i - 1 else i in
  let lower = function
    | Circuit.Single s -> Circuit.Single { s with target = m s.target; controls = List.map m s.controls }
    | Circuit.Two t -> Circuit.Two { t with q_hi = m t.q_hi; q_lo = m t.q_lo }
  in
  let kept = List.filter (fun op -> not (List.mem q (Circuit.op_qubits op))) case.ops in
  with_ops { case with n = case.n - 1 } (List.map lower kept)

let shrink case yield =
  let cfg = case.cfg in
  QCheck.Shrink.list case.ops (fun ops -> yield (with_ops case ops));
  if case.n > 1 then for q = case.n - 1 downto 0 do yield (drop_qubit case q) done;
  (match policy_index cfg with
   | 0 -> ()
   | 1 -> yield { case with cfg = { cfg with Config.policy = Config.Never_convert } }
   | _ -> yield { case with cfg = { cfg with Config.policy = Config.Convert_at (-1) } });
  List.iter (fun a -> let i = a.index cfg in if i > 0 then yield { case with cfg = a.set (i - 1) cfg }) axes;
  if case.pool > 1 then
    yield { case with pool = case.pool - 1; cfg = { cfg with Config.threads = case.pool - 1 } }

(* --- printing and statistics -------------------------------------------- *)

let circuit_of case = Circuit.make ~name:case.source case.n case.ops

(* The circuit prints as OpenQASM where it has a qelib1 spelling, so a
   shrunk case replays with [flatdd_cli --qasm]. *)
let print case =
  let c = circuit_of case in
  Printf.sprintf "%d qubits from %s, pool of %d\npolicy=%s %s\n%s" case.n case.source case.pool
    (policy_name case.cfg)
    (String.concat " " (List.map (fun a -> a.name ^ "=" ^ a.show case.cfg) axes))
    (try Qasm_export.to_string c with Qasm_export.Unsupported _ -> Format.asprintf "%a" Circuit.pp c)

(* One histogram per axis, values by index (policy: 0 never, 1 convert
   before gate 0, 2 EWMA, 3 convert later; family -1: the random mix). *)
let stats =
  let family case =
    let names = List.map Suite.family_name Suite.all_families in
    let name = List.hd (String.split_on_char '-' case.source) in
    Option.value ~default:(-1) (List.find_index (( = ) name) names)
  in
  [ ("policy", fun case -> policy_index case.cfg); ("pool", fun case -> case.pool);
    ("qubits", fun case -> case.n); ("suite family", family) ]
  @ List.map (fun a -> (a.name, fun case -> a.index case.cfg)) axes

(* --- the property ------------------------------------------------------- *)

let is_f32 x = Float.equal (Int32.float_of_bits (Int32.bits_of_float x)) x

let check case =
  let c = circuit_of case and cfg = case.cfg in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let tol = bound cfg.Config.precision and expect = (Apply.run c).State.amps in
  let races = Check.races () in
  let r = Pool.with_pool case.pool (fun pool -> Driver.run ~pool cfg c) in
  let amps = Driver.amplitudes r in
  let d = Buf.max_abs_diff amps expect in
  if d > tol then fail "amplitudes differ from Apply.run by %.3e (bound %g)" d tol;
  List.iter
    (fun i ->
       let d = Cnum.norm (Cnum.sub (Driver.amplitude r i) (Buf.get expect i)) in
       if d > tol then fail "Driver.amplitude %d differs by %.3e (bound %g)" i d tol)
    [ 0; 1; (1 lsl case.n) - 1 ];
  let norm = Float.sqrt (Buf.norm2 amps) and nb = norm_bound cfg.Config.precision in
  if Float.abs (norm -. 1.0) > nb then fail "norm %.17g (bound %g)" norm nb;
  (match cfg.Config.policy, r.Driver.converted_at with
   | Config.Convert_at k, Some k' when k = k' -> ()
   | (Config.Convert_at _ | Config.Never_convert), Some k -> fail "converted_at = Some %d" k
   | Config.Convert_at _, None -> fail "converted_at = None"
   | _ -> ());
  let flat = match r.Driver.final with Engine.Flat_state _ -> true | Engine.Dd_state _ -> false in
  if r.Driver.order <> None && (flat || cfg.Config.order = Config.No_order) then
    fail "an order reported for a %s result" (if flat then "flat" else "No_order DD");
  if flat && cfg.Config.precision = Config.F32 then
    for k = 0 to Bigarray.Array1.dim amps.Buf.data - 1 do
      let x = amps.Buf.data.{k} in
      if not (is_f32 x) then fail "f32 result word %d (%h) is not a float32 value" k x
    done;
  if Check.races () > races then fail "%d FLATDD_CHECK races" (Check.races () - races);
  true

let cell =
  QCheck.Test.make_cell ~name:"every configuration agrees with Apply.run" ~count:500
    ~long_factor:25 (QCheck.make ~print ~shrink ~stats case_gen) check

(* QCheck_alcotest prints no stats, so this runs the cell under the same
   environment: QCHECK_SEED fixes the seed, QCHECK_LONG the long count. *)
let run () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> int_of_string s
    | None -> Random.self_init (); Random.int 1_000_000_000
  in
  Printf.printf "qcheck random seed: %d\n" seed;
  let call _ _ result =
    List.iter (fun st -> print_endline (QCheck2.Test.print_stat st)) (QCheck2.TestResult.stats result)
  in
  QCheck2.Test.check_cell_exn ~call ~rand:(Random.State.make [| seed |])
    ~long:(List.mem (Sys.getenv_opt "QCHECK_LONG") [ Some "1"; Some "true" ]) cell

let suite = [ ("oracle", [ Alcotest.test_case (QCheck.Test.get_name cell) `Quick run ]) ]
