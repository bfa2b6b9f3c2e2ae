type single = Cnum.t array array
type two = Cnum.t array array

let c re im = Cnum.make re im
let r x = Cnum.of_float x
let s2 = 1.0 /. sqrt 2.0

let id2 = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; Cnum.one |] |]
let x = [| [| Cnum.zero; Cnum.one |]; [| Cnum.one; Cnum.zero |] |]
let y = [| [| Cnum.zero; c 0.0 (-1.0) |]; [| Cnum.i; Cnum.zero |] |]
let z = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; Cnum.minus_one |] |]
let h = [| [| r s2; r s2 |]; [| r s2; r (-.s2) |] |]
let s = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; Cnum.i |] |]
let sdg = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; c 0.0 (-1.0) |] |]
let t = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; c s2 s2 |] |]
let tdg = [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; c s2 (-.s2) |] |]

(* sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]] *)
let sx =
  [| [| c 0.5 0.5; c 0.5 (-0.5) |]; [| c 0.5 (-0.5); c 0.5 0.5 |] |]

(* sqrt(Y) = 1/2 [[1+i, -1-i], [1+i, 1+i]] *)
let sy =
  [| [| c 0.5 0.5; c (-0.5) (-0.5) |]; [| c 0.5 0.5; c 0.5 0.5 |] |]

(* sqrt(W) with W = (X + Y)/sqrt2 = D X D†, D = diag(1, e^{i pi/4}), hence
   sqrt(W) = D sqrt(X) D† = [[ (1+i)/2, -i/sqrt2 ], [ 1/sqrt2, (1+i)/2 ]]. *)
let sw =
  [| [| c 0.5 0.5; c 0.0 (-.s2) |]; [| c s2 0.0; c 0.5 0.5 |] |]

let rx theta =
  let co = cos (theta /. 2.0) and si = sin (theta /. 2.0) in
  [| [| r co; c 0.0 (-.si) |]; [| c 0.0 (-.si); r co |] |]

let ry theta =
  let co = cos (theta /. 2.0) and si = sin (theta /. 2.0) in
  [| [| r co; r (-.si) |]; [| r si; r co |] |]

let rz theta =
  [| [| Cnum.polar 1.0 (-.theta /. 2.0); Cnum.zero |];
     [| Cnum.zero; Cnum.polar 1.0 (theta /. 2.0) |] |]

let phase lambda =
  [| [| Cnum.one; Cnum.zero |]; [| Cnum.zero; Cnum.polar 1.0 lambda |] |]

let u3 theta phi lambda =
  let co = cos (theta /. 2.0) and si = sin (theta /. 2.0) in
  [| [| r co; Cnum.neg (Cnum.mul (Cnum.polar 1.0 lambda) (r si)) |];
     [| Cnum.mul (Cnum.polar 1.0 phi) (r si);
        Cnum.mul (Cnum.polar 1.0 (phi +. lambda)) (r co) |] |]

let u2 phi lambda = u3 (Float.pi /. 2.0) phi lambda

let swap2 =
  [| [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.one; Cnum.zero |];
     [| Cnum.zero; Cnum.one; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.zero; Cnum.one |] |]

let iswap =
  [| [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.i; Cnum.zero |];
     [| Cnum.zero; Cnum.i; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.zero; Cnum.one |] |]

let cz2 =
  [| [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.one; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.one; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.zero; Cnum.minus_one |] |]

let fsim theta phi =
  let co = r (cos theta) and msi = c 0.0 (-.sin theta) in
  [| [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.zero |];
     [| Cnum.zero; co; msi; Cnum.zero |];
     [| Cnum.zero; msi; co; Cnum.zero |];
     [| Cnum.zero; Cnum.zero; Cnum.zero; Cnum.polar 1.0 (-.phi) |] |]

let mul_gen n a b =
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref Cnum.zero in
          for k = 0 to n - 1 do
            acc := Cnum.add !acc (Cnum.mul a.(i).(k) b.(k).(j))
          done;
          !acc))

let mul2 a b = mul_gen 2 a b
let mul4 a b = mul_gen 4 a b

let adjoint_gen n a =
  Array.init n (fun i -> Array.init n (fun j -> Cnum.conj a.(j).(i)))

let adjoint a = adjoint_gen 2 a
let adjoint4 a = adjoint_gen 4 a

let is_unitary_gen n ?(tol = 1e-9) a =
  let p = mul_gen n (adjoint_gen n a) a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expect = if i = j then Cnum.one else Cnum.zero in
      if not (Cnum.equal ~tol p.(i).(j) expect) then ok := false
    done
  done;
  !ok

let is_unitary ?tol a = is_unitary_gen 2 ?tol a
let is_unitary4 ?tol a = is_unitary_gen 4 ?tol a

let equal ?(tol = 1e-12) a b =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    for j = 0 to Array.length a - 1 do
      if not (Cnum.equal ~tol a.(i).(j) b.(i).(j)) then ok := false
    done
  done;
  !ok

let pp fmt a =
  let n = Array.length a in
  Format.fprintf fmt "@[<v>";
  for i = 0 to n - 1 do
    Format.fprintf fmt "[";
    for j = 0 to n - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Cnum.pp fmt a.(i).(j)
    done;
    Format.fprintf fmt "]@,"
  done;
  Format.fprintf fmt "@]"
