(* Quickstart: build a circuit, simulate it with FlatDD, inspect the
   result.

     dune exec examples/quickstart.exe

   The circuit is a 16-qubit GHZ preparation — a regular circuit, so
   FlatDD finishes entirely inside its decision-diagram phase; then a
   16-qubit random ansatz — an irregular circuit, where FlatDD converts
   mid-run to its flat-array DMAV engine. *)

let describe name (r : Driver.result) =
  Printf.printf "%s: %d qubits, %d gates, %.4f s\n" name r.Driver.n
    r.Driver.gates r.Driver.seconds_total;
  (match r.Driver.converted_at with
   | None -> Printf.printf "  engine stayed in DD simulation (regular circuit)\n"
   | Some i ->
     Printf.printf
       "  switched DD -> flat array after gate %d; %d DMAV gates used the cache\n"
       i r.Driver.dmav_gates_cached);
  let amps = Driver.amplitudes r in
  let st = State.of_buf r.Driver.n amps in
  let best, p = State.most_likely st in
  Printf.printf "  most likely outcome: |%d> with probability %.4f\n" best p

let () =
  let cfg = { Config.default with Config.threads = 4; trace = false } in

  (* A regular circuit: GHZ state over 16 qubits. *)
  let ghz = Ghz.circuit 16 in
  let r = Driver.run cfg ghz in
  describe "ghz-16" r;
  let amps = Driver.amplitudes r in
  Printf.printf "  amplitude of |0...0>: %s\n" (Cnum.to_string (Buf.get amps 0));
  Printf.printf "  amplitude of |1...1>: %s\n\n"
    (Cnum.to_string (Buf.get amps ((1 lsl 16) - 1)));

  (* An irregular circuit: a random rotation ansatz over 16 qubits. *)
  let dnn = Dnn.circuit ~layers:8 16 in
  let r = Driver.run cfg dnn in
  describe "dnn-16" r;

  (* Sample measurement outcomes from the final state. *)
  let st = State.of_buf 16 (Driver.amplitudes r) in
  let sampler = State.Sampler.create st in
  let rng = Rng.create 2024 in
  let counts = State.Sampler.counts sampler rng ~shots:1000 in
  Printf.printf "  top outcomes over 1000 shots:\n";
  List.iteri
    (fun k (basis, count) ->
       if k < 5 then Printf.printf "    |%5d> : %d shots\n" basis count)
    counts
