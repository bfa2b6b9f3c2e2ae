type family =
  | Dnn
  | Adder
  | Ghz
  | Vqe
  | Knn
  | Swap_test
  | Supremacy
  | Qft
  | Grover
  | Bv
  | Qpe

let all_families =
  [ Dnn; Adder; Ghz; Vqe; Knn; Swap_test; Supremacy; Qft; Grover; Bv; Qpe ]

let family_name = function
  | Dnn -> "dnn"
  | Adder -> "adder"
  | Ghz -> "ghz"
  | Vqe -> "vqe"
  | Knn -> "knn"
  | Swap_test -> "swaptest"
  | Supremacy -> "supremacy"
  | Qft -> "qft"
  | Grover -> "grover"
  | Bv -> "bv"
  | Qpe -> "qpe"

let family_of_name s =
  List.find_opt (fun f -> family_name f = String.lowercase_ascii s) all_families

let regular = function
  | Adder | Ghz | Bv -> true
  | Dnn | Vqe | Knn | Swap_test | Supremacy | Qft | Grover | Qpe -> false

(* A generated circuit holds every op at once, and a run holds more per
   gate: a 4-qubit dnn of this size ran in 5.2 s at 475 MB peak RSS with
   `-e dd` (2-core Xeon), where 10^11 gates aborted on allocation. *)
let max_gates = 100_000

let check_gates g =
  if g < 1 then invalid_arg (Printf.sprintf "gates must be >= 1 (got %d)" g);
  if g > max_gates then invalid_arg (Printf.sprintf "gates must be <= %d (got %d)" max_gates g)

let generate ?seed ?gates family ~n =
  (try Option.iter check_gates gates with Invalid_argument m -> invalid_arg ("Suite.generate: " ^ m));
  match family with
  | Dnn ->
    let gates = Option.value gates ~default:(Dnn.gates_per_layer n * 8) in
    Dnn.circuit_with_gates ?seed ~gates n
  | Adder -> Adder.circuit ?seed n
  | Ghz -> Ghz.circuit n
  | Vqe ->
    let layers =
      match gates with
      | None -> 3
      | Some g -> Int.max 1 (g / ((3 * n) + 1))
    in
    Vqe.circuit ?seed ~layers n
  | Knn -> Swaptest.knn ?seed n
  | Swap_test -> Swaptest.swap_test ?seed n
  | Supremacy ->
    let gates = Option.value gates ~default:(n * 40) in
    Supremacy.circuit_with_gates ?seed ~gates n
  | Qft -> Qft.circuit n
  | Grover ->
    let iterations = Option.map (fun g -> Int.max 1 (g / ((6 * n) + 2))) gates in
    Grover.circuit ?iterations n
  | Bv ->
    let secret = match seed with None -> 0b1011 | Some s -> s in
    Bv.circuit ~secret n
  | Qpe ->
    (* The estimated phase is derived from the seed so different seeds
       probe different interference patterns; n = counting bits + 1. *)
    let seed = Option.value seed ~default:1 in
    let phi = Rng.float (Rng.create seed) 1.0 in
    Qpe.circuit ~bits:(n - 1) phi
