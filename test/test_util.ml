(* Shared helpers for the test suite. *)

(* A random circuit over [n] qubits mixing every operation kind the IR
   supports (plain, controlled, multi-controlled, two-qubit unitaries). *)
let random_circuit ?(seed = 1) ?(gates = 40) n =
  let rng = Rng.create seed in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "random-%d-%d" n seed) n in
  for _ = 1 to gates do
    match Rng.int rng 8 with
    | 0 -> Circuit.Builder.h b (Rng.int rng n)
    | 1 ->
      Circuit.Builder.u3 b (Rng.angle rng) (Rng.angle rng) (Rng.angle rng)
        (Rng.int rng n)
    | 2 ->
      let c = Rng.int rng n in
      let t = (c + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.cx b ~control:c ~target:t
    | 3 ->
      let c = Rng.int rng n in
      let t = (c + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.cp b (Rng.angle rng) ~control:c ~target:t
    | 4 when n >= 3 ->
      let q = Rng.int rng (n - 2) in
      Circuit.Builder.ccx b ~c1:q ~c2:(q + 1) ~target:(q + 2)
    | 5 ->
      let q1 = Rng.int rng n in
      let q2 = (q1 + 1 + Rng.int rng (n - 1)) mod n in
      Circuit.Builder.fsim b ~theta:(Rng.angle rng) ~phi:(Rng.angle rng) q1 q2
    | 6 -> Circuit.Builder.t b (Rng.int rng n)
    | _ -> Circuit.Builder.ry b (Rng.angle rng) (Rng.int rng n)
  done;
  Circuit.Builder.finish b

(* A random state vector produced by a short random circuit. *)
let random_state ?(seed = 1) n = (Apply.run (random_circuit ~seed ~gates:(6 * n) n)).State.amps

let check_close ?(tol = 1e-10) msg a b =
  let d = Buf.max_abs_diff a b in
  if d > tol then Alcotest.failf "%s: max amplitude diff %.3e" msg d

(* The pure-DD path, the bench's DD baseline: the driver with conversion
   off, on one thread. *)
let run_dd ?package ?(compact_every = Workloads.dd_config.Config.compact_every) c =
  Driver.run ?package { Workloads.dd_config with Config.compact_every } c

(* The package and final state DD of a pure-DD run. *)
let dd_state (r : Driver.result) =
  match r.Driver.final with
  | Engine.Dd_state { package; edge } -> (package, edge)
  | Engine.Flat_state _ -> Alcotest.fail "pure-DD run ended flat"
