type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 expands the seed into four well-mixed initial words, which is
   the initialization the xoshiro authors prescribe. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tt = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tt;
  t.s3 <- rotl t.s3 45;
  result

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection-free modulo is fine here: bounds are tiny next to 2^62, so
     the bias is immeasurable for circuit generation. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 high bits -> uniform double in [0,1). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v *. 0x1p-53)

let angle t = float t (2.0 *. Float.pi)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let derive seed index =
  if index < 0 then invalid_arg "Rng.derive: index must be >= 0";
  (* One golden-ratio stride per index keeps distinct (seed, index) pairs
     on distinct splitmix streams, then one splitmix step mixes the pair;
     the shift keeps the result a nonnegative OCaml int. *)
  let st =
    ref
      (Int64.add (Int64.of_int seed)
         (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L))
  in
  Int64.to_int (Int64.shift_right_logical (splitmix64 st) 2)
