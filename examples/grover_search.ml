(* Grover search, end to end: amplify a marked element of an unsorted
   12-qubit database and watch the success probability peak at the optimal
   iteration count.

     dune exec examples/grover_search.exe *)

let () =
  let n = 12 in
  let marked = 2741 in
  let optimal = Grover.optimal_iterations n in
  Printf.printf "searching %d items for |%d>; optimal iterations = %d\n"
    (1 lsl n) marked optimal;
  let cfg = { Config.default with Config.threads = 4 } in
  List.iter
    (fun iterations ->
       let c = Grover.circuit ~marked ~iterations n in
       let r = Driver.run cfg c in
       let amps = Driver.amplitudes r in
       let p = Cnum.norm2 (Buf.get amps marked) in
       Printf.printf "  %4d iterations (%5d gates): P(marked) = %.6f  [%.3f s]\n"
         iterations (Circuit.num_gates c) p r.Driver.seconds_total)
    [ 1; optimal / 4; optimal / 2; optimal; optimal + (optimal / 2) ];
  (* At the optimum the marked probability should be essentially 1. *)
  let c = Grover.circuit ~marked ~iterations:optimal n in
  let r = Driver.run cfg c in
  let p = Cnum.norm2 (Buf.get (Driver.amplitudes r) marked) in
  if p > 0.99 then Printf.printf "search succeeded (P = %.6f)\n" p
  else Printf.printf "unexpected: P = %.6f\n" p
