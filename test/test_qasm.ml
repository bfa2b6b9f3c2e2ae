let parse src = Qasm.of_string src

let same_state ?(tol = 1e-10) c1 c2 =
  let a = Apply.run c1 and b = Apply.run c2 in
  Buf.max_abs_diff a.State.amps b.State.amps < tol

let test_minimal () =
  let p = parse "OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];" in
  Alcotest.(check int) "qubits" 2 p.Qasm.circuit.Circuit.n;
  Alcotest.(check int) "gates" 2 (Circuit.num_gates p.Qasm.circuit);
  Alcotest.(check bool) "equals GHZ-2" true (same_state p.Qasm.circuit (Ghz.circuit 2))

let test_include_and_comments () =
  let p =
    parse
      {|OPENQASM 2.0;
        include "qelib1.inc";
        // a comment
        qreg q[1];
        x q[0]; // trailing comment
      |}
  in
  Alcotest.(check int) "one gate" 1 (Circuit.num_gates p.Qasm.circuit)

let test_builtin_gates () =
  let p =
    parse
      {|OPENQASM 2.0;
        qreg q[3];
        x q[0]; y q[1]; z q[2]; h q[0]; s q[1]; sdg q[1]; t q[2]; tdg q[2];
        sx q[0]; id q[1];
        rx(0.5) q[0]; ry(0.25) q[1]; rz(1.5) q[2];
        u1(0.7) q[0]; u2(0.1,0.2) q[1]; u3(0.1,0.2,0.3) q[2];
        cx q[0],q[1]; cz q[1],q[2]; cy q[0],q[2]; ch q[0],q[1];
        ccx q[0],q[1],q[2]; crz(0.4) q[0],q[1]; cu1(0.3) q[1],q[2];
        cu3(0.1,0.2,0.3) q[0],q[2];
        swap q[0],q[1]; cswap q[2],q[0],q[1];
        rzz(0.6) q[0],q[1]; iswap q[1],q[2];
      |}
  in
  (* id contributes no op; swap = 3, cswap = 3, rzz = 3. *)
  Alcotest.(check bool) "parsed a rich program" true (Circuit.num_gates p.Qasm.circuit > 25);
  let st = Apply.run p.Qasm.circuit in
  Alcotest.(check (float 1e-9)) "norm preserved" 1.0 (Buf.norm2 st.State.amps)

let test_expressions () =
  let p =
    parse
      {|OPENQASM 2.0; qreg q[1];
        rz(pi/2) q[0];
        rz(-pi/4) q[0];
        rz(2*pi/8 + pi/8 - pi/8) q[0];
        rz(sin(pi/6)) q[0];
        rz(cos(0)) q[0];
        rz(sqrt(4)) q[0];
        rz(2^3/4) q[0];
        rz(ln(exp(1))) q[0];
      |}
  in
  (* Net rotation: pi/2 - pi/4 + pi/4 + 0.5 + 1 + 2 + 2 + 1 *)
  let total = (Float.pi /. 2.0) +. (-.Float.pi /. 4.0) +. (Float.pi /. 4.0)
              +. 0.5 +. 1.0 +. 2.0 +. 2.0 +. 1.0 in
  (* Compare unitaries through a DD to avoid basis-state phase blindness. *)
  let pkg = Dd.create () in
  let m1 =
    Array.fold_left (fun acc op -> Dd.mm pkg (Mat_dd.of_op pkg ~n:1 op) acc)
      (Mat_dd.identity pkg 1) p.Qasm.circuit.Circuit.ops
  in
  let m2 = Mat_dd.of_single pkg ~n:1 ~target:0 ~controls:[] (Gate.rz total) in
  let ok = ref true in
  for r = 0 to 1 do
    for c = 0 to 1 do
      if not (Cnum.equal ~tol:1e-9 (Dd.mentry pkg m1 r c) (Dd.mentry pkg m2 r c)) then ok := false
    done
  done;
  Alcotest.(check bool) "expression arithmetic" true !ok

let test_broadcast () =
  let p = parse "OPENQASM 2.0; qreg q[4]; h q;" in
  Alcotest.(check int) "broadcast h" 4 (Circuit.num_gates p.Qasm.circuit);
  let p2 = parse "OPENQASM 2.0; qreg a[3]; qreg b[3]; cx a,b;" in
  Alcotest.(check int) "broadcast cx over two registers" 3
    (Circuit.num_gates p2.Qasm.circuit);
  (* Mixed: fixed control, broadcast target is rejected only on size
     mismatch; a[0],b broadcasts over b. *)
  let p3 = parse "OPENQASM 2.0; qreg a[1]; qreg b[3]; cx a[0],b;" in
  Alcotest.(check int) "fixed+register broadcast" 3 (Circuit.num_gates p3.Qasm.circuit)

let test_multiple_qregs_layout () =
  let p = parse "OPENQASM 2.0; qreg a[2]; qreg b[2]; x a[1]; x b[0];" in
  let st = Apply.run p.Qasm.circuit in
  (* a occupies qubits 0-1, b occupies 2-3: expect |0110> = index 6. *)
  Alcotest.(check (float 1e-12)) "register layout" 1.0 (State.probability st 6)

let test_custom_gate () =
  let p =
    parse
      {|OPENQASM 2.0;
        qreg q[2];
        gate bell a,b { h a; cx a,b; }
        bell q[0],q[1];
      |}
  in
  Alcotest.(check bool) "bell macro expands to GHZ-2" true
    (same_state p.Qasm.circuit (Ghz.circuit 2))

let test_custom_gate_params () =
  let p =
    parse
      {|OPENQASM 2.0;
        qreg q[1];
        gate wiggle(t) a { rz(t/2) a; rz(t/2) a; }
        wiggle(pi) q[0];
      |}
  in
  let b = Circuit.Builder.create 1 in
  Circuit.Builder.h b 0;
  let prep = Circuit.Builder.finish b in
  let direct = Circuit.Builder.create 1 in
  Circuit.Builder.rz direct Float.pi 0;
  Alcotest.(check bool) "parameterized macro" true
    (same_state
       (Circuit.append prep p.Qasm.circuit)
       (Circuit.append prep (Circuit.Builder.finish direct)))

let test_nested_custom_gates () =
  let p =
    parse
      {|OPENQASM 2.0;
        qreg q[2];
        gate flip a { x a; }
        gate flipboth a,b { flip a; flip b; }
        flipboth q[0],q[1];
      |}
  in
  let st = Apply.run p.Qasm.circuit in
  Alcotest.(check (float 1e-12)) "nested expansion" 1.0 (State.probability st 3)

let test_measure () =
  let p =
    parse "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; measure q -> c;"
  in
  Alcotest.(check int) "clbits" 2 p.Qasm.num_clbits;
  Alcotest.(check (list (pair int int))) "measurement map" [ (0, 0); (1, 1) ]
    p.Qasm.measurements;
  let p2 = parse "OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[1] -> c[0];" in
  Alcotest.(check (list (pair int int))) "indexed measure" [ (1, 0) ] p2.Qasm.measurements

let test_barrier_ignored () =
  let p = parse "OPENQASM 2.0; qreg q[2]; h q[0]; barrier q; barrier q[0],q[1]; x q[1];" in
  Alcotest.(check int) "barriers ignored" 2 (Circuit.num_gates p.Qasm.circuit)

let expect_error src fragment =
  match parse src with
  | exception Qasm.Parse_error { message; _ } ->
    if not (String.length message >= String.length fragment) then
      Alcotest.failf "weird message %s" message;
    let contains =
      let rec go i =
        i + String.length fragment <= String.length message
        && (String.sub message i (String.length fragment) = fragment || go (i + 1))
      in
      go 0
    in
    if not contains then Alcotest.failf "message %S lacks %S" message fragment
  | _ -> Alcotest.failf "expected a parse error for %s" src

let test_errors () =
  expect_error "OPENQASM 2.0; qreg q[2]; frob q[0];" "unknown gate";
  expect_error "OPENQASM 2.0; qreg q[1]; x q[5];" "out of range";
  expect_error "OPENQASM 2.0; qreg q[1]; x r[0];" "unknown quantum register";
  expect_error "OPENQASM 2.0; x q[0];" "no qreg";
  expect_error "OPENQASM 2.0; qreg q[1]; reset q[0];" "not supported";
  expect_error "OPENQASM 2.0; qreg a[2]; qreg b[3]; cx a,b;" "size mismatch";
  expect_error "OPENQASM 2.0; qreg q[1]; rz(unknown_param) q[0];" "unknown parameter"

let test_error_line_numbers () =
  match parse "OPENQASM 2.0;\nqreg q[1];\n\nfrob q[0];\n" with
  | exception Qasm.Parse_error { line; _ } -> Alcotest.(check int) "line" 4 line
  | _ -> Alcotest.fail "expected parse error"

(* Each statement, after a 3-qubit register, fails with (line, message):
   a gate application whose qubits repeat or whose parameter is inf or
   NaN fails on its own line, naming the gate as written, not the ops it
   expands to; a macro body's statement fails on the body's line. *)
let check_errors cases =
  List.iter
    (fun (body, want) ->
       match parse ("OPENQASM 2.0;\nqreg q[3];\n" ^ body ^ "\n") with
       | exception Qasm.Parse_error { line; message } ->
         Alcotest.(check (pair int string)) body want (line, message)
       | _ -> Alcotest.failf "expected a parse error for %s" body)
    cases

let test_repeated_qubits () =
  let at3 gate = (3, "repeated qubit argument in " ^ gate) in
  check_errors
    [ ("swap q[1],q[1];", at3 "swap"); ("cx q[0],q[0];", at3 "cx");
      ("ccx q[0],q[1],q[0];", at3 "ccx"); ("cu3(1,2,3) q[2],q[2];", at3 "cu3");
      ("rzz(0.5) q[1],q[1];", at3 "rzz"); ("gate g a,b { cx a,b; } g q[0],q[0];", at3 "g");
      ("gate g a,b { cx a,a; }\ng q[0],q[1];", at3 "cx") ]

let test_non_finite_parameters () =
  let at3 p gate = (3, Printf.sprintf "parameter %s of %s is not finite" p gate) in
  check_errors
    [ ("rx(1/0) q[0];", at3 "inf" "rx"); ("u3(1e400,0,0) q[1];", at3 "inf" "u3");
      ("rz(-1/0) q[0];", at3 "-inf" "rz"); ("p(0/0) q[0];", at3 "nan" "p");
      ("gate g(a) x { rz(a) x; } g(ln(0)) q[0];", at3 "-inf" "g") ]

(* A register wider than [Circuit.max_qubits] is a parse error on the
   qreg declaration that crossed the bound. *)
let test_register_bound () =
  check_errors [ ("qreg r[59];", (3, "qreg declarations total 62 qubits: a register holds 1 to 61")) ];
  (match parse "OPENQASM 2.0;\nqreg a[40];\nqreg b[30];\nqreg c[1];\nh a[0];\n" with
   | exception Qasm.Parse_error { line; _ } -> Alcotest.(check int) "line of the crossing qreg" 3 line
   | _ -> Alcotest.fail "expected a parse error for 71 qubits");
  let p = parse "OPENQASM 2.0; qreg a[40]; qreg b[21]; h b[20];" in
  Alcotest.(check int) "61 qubits parse" 61 p.Qasm.circuit.Circuit.n

let test_qasm_vs_generator () =
  (* A hand-written QFT-3 in QASM must match our generator (no swaps). *)
  let p =
    parse
      {|OPENQASM 2.0; qreg q[3];
        h q[2];
        cu1(pi/2) q[1],q[2];
        cu1(pi/4) q[0],q[2];
        h q[1];
        cu1(pi/2) q[0],q[1];
        h q[0];
      |}
  in
  let prep = Circuit.Builder.create 3 in
  Circuit.Builder.x prep 0;
  Circuit.Builder.ry prep 0.3 1;
  let prep = Circuit.Builder.finish prep in
  Alcotest.(check bool) "matches generator" true
    (same_state
       (Circuit.append prep p.Qasm.circuit)
       (Circuit.append prep (Qft.circuit ~swaps:false 3)))

let suite =
  [ ( "qasm",
      [ Alcotest.test_case "minimal program" `Quick test_minimal;
        Alcotest.test_case "include and comments" `Quick test_include_and_comments;
        Alcotest.test_case "builtin gate set" `Quick test_builtin_gates;
        Alcotest.test_case "parameter expressions" `Quick test_expressions;
        Alcotest.test_case "register broadcast" `Quick test_broadcast;
        Alcotest.test_case "multi-register layout" `Quick test_multiple_qregs_layout;
        Alcotest.test_case "custom gate" `Quick test_custom_gate;
        Alcotest.test_case "custom gate with params" `Quick test_custom_gate_params;
        Alcotest.test_case "nested custom gates" `Quick test_nested_custom_gates;
        Alcotest.test_case "measure" `Quick test_measure;
        Alcotest.test_case "barrier ignored" `Quick test_barrier_ignored;
        Alcotest.test_case "error reporting" `Quick test_errors;
        Alcotest.test_case "error line numbers" `Quick test_error_line_numbers;
        Alcotest.test_case "repeated qubit arguments" `Quick test_repeated_qubits;
        Alcotest.test_case "non-finite parameters" `Quick test_non_finite_parameters;
        Alcotest.test_case "register width bound" `Quick test_register_bound;
        Alcotest.test_case "hand QFT matches generator" `Quick test_qasm_vs_generator ] ) ]
