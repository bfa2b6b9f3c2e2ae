(* Parse and simulate an OpenQASM 2.0 program — the interchange format of
   the QASMBench / MQT Bench suites the paper evaluates on. The program
   below is a textbook 3-qubit phase-estimation-flavored circuit with a
   custom gate definition, parameter expressions, broadcasting and
   measurement.

     dune exec examples/qasm_runner.exe [file.qasm] *)

let demo_source = {|
OPENQASM 2.0;
include "qelib1.inc";

gate majority a,b,c {
  cx c,b;
  cx c,a;
  ccx a,b,c;
}

qreg q[3];
creg c[3];

h q;                 // broadcast over the register
u1(pi/4) q[0];
rz(pi/8) q[1];
cu1(pi/2) q[0],q[2];
majority q[0],q[1],q[2];
barrier q;
h q[2];
measure q -> c;
|}

let () =
  let source, label =
    if Array.length Sys.argv > 1 then begin
      let ic = open_in Sys.argv.(1) in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (s, Sys.argv.(1))
    end
    else (demo_source, "built-in demo")
  in
  match Qasm.of_string source with
  | exception (Qasm.Parse_error _ as e) ->
    Format.eprintf "%a@." Qasm.pp_error e;
    exit 1
  | prog ->
    let c = prog.Qasm.circuit in
    Printf.printf "parsed %s: %d qubits, %d gates, %d measurements\n" label
      c.Circuit.n (Circuit.num_gates c) (List.length prog.Qasm.measurements);
    let cfg = { Config.default with Config.threads = 2 } in
    let r = Driver.run cfg c in
    let st = State.of_buf c.Circuit.n (Driver.amplitudes r) in
    Printf.printf "simulated in %.4f s; outcome distribution:\n"
      r.Driver.seconds_total;
    for basis = 0 to Int.min 15 ((1 lsl c.Circuit.n) - 1) do
      let p = State.probability st basis in
      if p > 1e-9 then begin
        let bits =
          String.init c.Circuit.n (fun k ->
              if Bits.bit basis (c.Circuit.n - 1 - k) = 1 then '1' else '0')
        in
        Printf.printf "  |%s> : %.6f\n" bits p
      end
    done
