(* Qubit orders and the static scoring pass (ISSUE 8).

   An order maps logical qubit -> physical position. The scoring pass
   implements the gate-locality heuristic: DD node counts (and DMAV
   block structure) degrade with the level distance between interacting
   qubits, so we minimize the interaction-weighted sum of distances —
   a weighted minimum linear arrangement, solved greedily:

     1. interaction graph: w(a,b) = number of gates touching both a, b;
     2. seed the placement line with the most-connected qubit, then
        repeatedly append the unplaced qubit with the strongest coupling
        to the placed set;
     3. polish with a bounded adjacent-transposition hill-climb (each
        test is O(n) via the weight matrix rows).

   Every tie breaks toward the lower qubit index, so the result is a
   pure function of the circuit. The identity is returned unless the
   scored order is strictly better, which keeps already-local circuits
   (GHZ chains, adder ripples) byte-stable. *)

type t = int array

let identity n = Array.init n (fun q -> q)

let of_array a =
  let n = Array.length a in
  let seen = Array.make n false in
  Array.iter
    (fun p ->
       if p < 0 || p >= n || seen.(p) then
         invalid_arg "Order.of_array: not a permutation";
       seen.(p) <- true)
    a;
  Array.copy a

let to_array t = Array.copy t

let is_identity t =
  let ok = ref true in
  Array.iteri (fun q p -> if q <> p then ok := false) t;
  !ok

let apply t q = t.(q)

let permute_index t i =
  let k = ref 0 in
  Array.iteri (fun q p -> k := !k lor (((i lsr q) land 1) lsl p)) t;
  !k

(* --- interaction graph ------------------------------------------------- *)

(* Dense n*n symmetric int matrix; n is a register size (tens), never a
   state-space size. *)
let weights (c : Circuit.t) =
  let n = c.Circuit.n in
  let w = Array.make (n * n) 0 in
  Array.iter
    (fun op ->
       let qs = Circuit.op_qubits op in
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 if a < b then begin
                   w.((a * n) + b) <- w.((a * n) + b) + 1;
                   w.((b * n) + a) <- w.((b * n) + a) + 1
                 end)
              qs)
         qs)
    c.Circuit.ops;
  w

let score_w w n (t : t) =
  let acc = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let wab = w.((a * n) + b) in
      if wab <> 0 then acc := !acc + (wab * abs (t.(a) - t.(b)))
    done
  done;
  float_of_int !acc

let score c t =
  let n = c.Circuit.n in
  if Array.length t <> n then invalid_arg "Order.score: size mismatch";
  score_w (weights c) n t

(* --- greedy placement + hill-climb ------------------------------------- *)

let static_order c =
  let n = c.Circuit.n in
  if n <= 2 then identity n
  else begin
    let w = weights c in
    let strength = Array.make n 0 in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        strength.(a) <- strength.(a) + w.((a * n) + b)
      done
    done;
    (* Placement line: pos.(i) = qubit at physical position i. *)
    let placed = Array.make n false in
    let pos = Array.make n (-1) in
    let seed = ref 0 in
    for q = 1 to n - 1 do
      if strength.(q) > strength.(!seed) then seed := q
    done;
    pos.(0) <- !seed;
    placed.(!seed) <- true;
    for i = 1 to n - 1 do
      (* Strongest total coupling to the placed set; disconnected qubits
         (attach = 0) fall back to lowest-index order. *)
      let best = ref (-1) and best_attach = ref (-1) in
      for q = 0 to n - 1 do
        if not placed.(q) then begin
          let attach = ref 0 in
          for j = 0 to i - 1 do
            attach := !attach + w.((q * n) + pos.(j))
          done;
          if !attach > !best_attach then begin
            best := q;
            best_attach := !attach
          end
        end
      done;
      pos.(i) <- !best;
      placed.(!best) <- true
    done;
    let t = Array.make n 0 in
    Array.iteri (fun i q -> t.(q) <- i) pos;
    (* Adjacent-transposition polish. Swapping the qubits at positions
       i, i+1 only changes terms involving those two qubits, so each
       test is a row walk. Strict improvement only: deterministic and
       terminating (the integer score decreases each accepted swap). *)
    let improved = ref true and passes = ref 0 in
    while !improved && !passes < 8 do
      improved := false;
      incr passes;
      for i = 0 to n - 2 do
        let a = pos.(i) and b = pos.(i + 1) in
        let delta = ref 0 in
        for q = 0 to n - 1 do
          if q <> a && q <> b then begin
            let pq = t.(q) in
            delta :=
              !delta
              + (w.((a * n) + q) * (abs (t.(b) - pq) - abs (t.(a) - pq)))
              + (w.((b * n) + q) * (abs (t.(a) - pq) - abs (t.(b) - pq)))
          end
        done;
        if !delta < 0 then begin
          pos.(i) <- b;
          pos.(i + 1) <- a;
          let pa = t.(a) in
          t.(a) <- t.(b);
          t.(b) <- pa;
          improved := true
        end
      done
    done;
    if score_w w n t < score_w w n (identity n) then t else identity n
  end
