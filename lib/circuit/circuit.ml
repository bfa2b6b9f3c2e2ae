type op =
  | Single of { name : string; matrix : Gate.single; target : int; controls : int list }
  | Two of { name : string; matrix : Gate.two; q_hi : int; q_lo : int }

type t = { n : int; name : string; ops : op array }

let op_qubits = function
  | Single { target; controls; _ } -> target :: controls
  | Two { q_hi; q_lo; _ } -> [ q_hi; q_lo ]

let op_name = function
  | Single { name; _ } -> name
  | Two { name; _ } -> name

let validate_op n op =
  let qs = op_qubits op in
  List.iter
    (fun q ->
       if q < 0 || q >= n then
         invalid_arg
           (Printf.sprintf "Circuit: qubit %d out of range for %s on %d qubits"
              q (op_name op) n))
    qs;
  let sorted = List.sort_uniq compare qs in
  if List.length sorted <> List.length qs then
    invalid_arg (Printf.sprintf "Circuit: repeated qubit in %s" (op_name op))

(* State indices are native ints (lib/util/bits.mli), and so is a
   register's dimension 2ⁿ, which [1 lsl 62] no longer is. *)
let max_qubits = 61

let check_qubits n =
  if n < 1 || n > max_qubits then
    invalid_arg (Printf.sprintf "%d qubits: a register holds 1 to %d" n max_qubits)

let make ?(name = "circuit") n ops =
  check_qubits n;
  List.iter (validate_op n) ops;
  { n; name; ops = Array.of_list ops }

let num_gates t = Array.length t.ops

let append a b =
  if a.n <> b.n then invalid_arg "Circuit.append: qubit count mismatch";
  { n = a.n; name = a.name ^ "+" ^ b.name; ops = Array.append a.ops b.ops }

let adjoint_op = function
  | Single { name; matrix; target; controls } ->
    Single { name = name ^ "dg"; matrix = Gate.adjoint matrix; target; controls }
  | Two { name; matrix; q_hi; q_lo } ->
    Two { name = name ^ "dg"; matrix = Gate.adjoint4 matrix; q_hi; q_lo }

let adjoint t =
  let ops = Array.map adjoint_op t.ops in
  let len = Array.length ops in
  let reversed = Array.init len (fun i -> ops.(len - 1 - i)) in
  { t with name = t.name ^ "-adj"; ops = reversed }

let depth t =
  let layer = Array.make t.n 0 in
  Array.iter
    (fun op ->
       let qs = op_qubits op in
       let at = 1 + List.fold_left (fun acc q -> Int.max acc layer.(q)) 0 qs in
       List.iter (fun q -> layer.(q) <- at) qs)
    t.ops;
  Array.fold_left Int.max 0 layer

let remap t ~n perm =
  check_qubits n;
  if Array.length perm <> t.n then invalid_arg "Circuit.remap: permutation width";
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun q ->
       if q < 0 || q >= n || Hashtbl.mem seen q then
         invalid_arg "Circuit.remap: permutation must be injective into the new register";
       Hashtbl.replace seen q ())
    perm;
  let relabel = function
    | Single { name; matrix; target; controls } ->
      Single { name; matrix; target = perm.(target); controls = List.map (Array.get perm) controls }
    | Two { name; matrix; q_hi; q_lo } ->
      Two { name; matrix; q_hi = perm.(q_hi); q_lo = perm.(q_lo) }
  in
  { n; name = t.name; ops = Array.map relabel t.ops }

let pp fmt t =
  Format.fprintf fmt "@[<v>%s (%d qubits, %d gates)@," t.name t.n (num_gates t);
  Array.iter
    (fun op ->
       match op with
       | Single { name; target; controls = []; _ } ->
         Format.fprintf fmt "  %s q%d@," name target
       | Single { name; target; controls; _ } ->
         Format.fprintf fmt "  %s q%d ctrl[%s]@," name target
           (String.concat "," (List.map string_of_int controls))
       | Two { name; q_hi; q_lo; _ } ->
         Format.fprintf fmt "  %s q%d,q%d@," name q_hi q_lo)
    t.ops;
  Format.fprintf fmt "@]"

module Builder = struct
  type b = { n : int; bname : string; mutable rev_ops : op list; mutable count : int }

  let create ?(name = "circuit") n =
    check_qubits n;
    { n; bname = name; rev_ops = []; count = 0 }

  let add b op =
    validate_op b.n op;
    b.rev_ops <- op :: b.rev_ops;
    b.count <- b.count + 1

  let single b ?(controls = []) name matrix target =
    add b (Single { name; matrix; target; controls })

  let h b q = single b "h" Gate.h q
  let x b q = single b "x" Gate.x q
  let y b q = single b "y" Gate.y q
  let z b q = single b "z" Gate.z q
  let s b q = single b "s" Gate.s q
  let sdg b q = single b "sdg" Gate.sdg q
  let t b q = single b "t" Gate.t q
  let tdg b q = single b "tdg" Gate.tdg q
  let sx b q = single b "sx" Gate.sx q
  let sy b q = single b "sy" Gate.sy q
  let sw b q = single b "sw" Gate.sw q
  let rx b theta q = single b "rx" (Gate.rx theta) q
  let ry b theta q = single b "ry" (Gate.ry theta) q
  let rz b theta q = single b "rz" (Gate.rz theta) q
  let phase b lambda q = single b "p" (Gate.phase lambda) q
  let u2 b phi lambda q = single b "u2" (Gate.u2 phi lambda) q
  let u3 b theta phi lambda q = single b "u3" (Gate.u3 theta phi lambda) q

  let cx b ~control ~target = single b ~controls:[ control ] "cx" Gate.x target
  let cy b ~control ~target = single b ~controls:[ control ] "cy" Gate.y target
  let cz b ~control ~target = single b ~controls:[ control ] "cz" Gate.z target

  let cp b lambda ~control ~target =
    single b ~controls:[ control ] "cp" (Gate.phase lambda) target

  let crz b theta ~control ~target =
    single b ~controls:[ control ] "crz" (Gate.rz theta) target

  let ccx b ~c1 ~c2 ~target = single b ~controls:[ c1; c2 ] "ccx" Gate.x target

  let swap b q1 q2 =
    cx b ~control:q1 ~target:q2;
    cx b ~control:q2 ~target:q1;
    cx b ~control:q1 ~target:q2

  let cswap b ~control q1 q2 =
    cx b ~control:q2 ~target:q1;
    add b (Single { name = "ccx"; matrix = Gate.x; target = q2; controls = [ control; q1 ] });
    cx b ~control:q2 ~target:q1

  let two b name matrix q_hi q_lo = add b (Two { name; matrix; q_hi; q_lo })

  let iswap b q1 q2 = two b "iswap" Gate.iswap q1 q2

  let fsim b ~theta ~phi q1 q2 = two b "fsim" (Gate.fsim theta phi) q1 q2

  let finish b = { n = b.n; name = b.bname; ops = Array.of_list (List.rev b.rev_ops) }
end
