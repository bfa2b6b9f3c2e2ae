type t = { n : int; amps : Buf.t }

let zero_state n =
  let amps = Buf.create (1 lsl n) in
  Buf.set amps 0 Cnum.one;
  { n; amps }

let basis_state n i =
  if i < 0 || i >= 1 lsl n then invalid_arg "State.basis_state";
  let amps = Buf.create (1 lsl n) in
  Buf.set amps i Cnum.one;
  { n; amps }

let of_buf n amps =
  if Buf.length amps <> 1 lsl n then invalid_arg "State.of_buf: wrong length";
  { n; amps }

let copy t = { t with amps = Buf.copy t.amps }
let dim t = 1 lsl t.n
let amplitude t i = Buf.get t.amps i
let probability t i =
  let re = Buf.get_re t.amps i and im = Buf.get_im t.amps i in
  (re *. re) +. (im *. im)
let norm2 t = Buf.norm2 t.amps

let most_likely t =
  let best = ref 0 and best_p = ref (probability t 0) in
  for i = 1 to dim t - 1 do
    let p = probability t i in
    if p > !best_p then begin
      best := i;
      best_p := p
    end
  done;
  (!best, !best_p)

type pauli = I | X | Y | Z

let pauli_matrix = function
  | I -> Gate.id2
  | X -> Gate.x
  | Y -> Gate.y
  | Z -> Gate.z

(* <psi|P|psi> for one Pauli string: apply P to a copy then take the inner
   product. The apply is a plain sequential single-qubit pass; observables
   are evaluated rarely (examples/tests), not in hot loops. *)
let expectation_string t factors =
  let phi = copy t in
  List.iter
    (fun (q, p) ->
       match p with
       | I -> ()
       | p ->
         let m = pauli_matrix p in
         let m00 = m.(0).(0) and m01 = m.(0).(1) in
         let m10 = m.(1).(0) and m11 = m.(1).(1) in
         let half = dim t / 2 in
         for k = 0 to half - 1 do
           let i0 = Bits.insert_bit k q 0 in
           let i1 = Bits.set_bit i0 q in
           let a0re = Buf.get_re phi.amps i0 and a0im = Buf.get_im phi.amps i0 in
           let a1re = Buf.get_re phi.amps i1 and a1im = Buf.get_im phi.amps i1 in
           Buf.set2 phi.amps i0
             (((m00.Cnum.re *. a0re) -. (m00.Cnum.im *. a0im))
              +. ((m01.Cnum.re *. a1re) -. (m01.Cnum.im *. a1im)))
             (((m00.Cnum.re *. a0im) +. (m00.Cnum.im *. a0re))
              +. ((m01.Cnum.re *. a1im) +. (m01.Cnum.im *. a1re)));
           Buf.set2 phi.amps i1
             (((m10.Cnum.re *. a0re) -. (m10.Cnum.im *. a0im))
              +. ((m11.Cnum.re *. a1re) -. (m11.Cnum.im *. a1im)))
             (((m10.Cnum.re *. a0im) +. (m10.Cnum.im *. a0re))
              +. ((m11.Cnum.re *. a1im) +. (m11.Cnum.im *. a1re)))
         done)
    factors;
  (* Re <psi|phi> — expectation of a Hermitian operator is real. *)
  let re = ref 0.0 in
  for i = 0 to dim t - 1 do
    let are = Buf.get_re t.amps i and aim = Buf.get_im t.amps i in
    let bre = Buf.get_re phi.amps i and bim = Buf.get_im phi.amps i in
    re := !re +. ((are *. bre) +. (aim *. bim))
  done;
  !re

let expectation_pauli t terms =
  List.fold_left (fun acc (c, factors) -> acc +. (c *. expectation_string t factors)) 0.0 terms

module Sampler = struct
  type state = t
  type nonrec t = { cum : float array; total : float }

  let create st =
    let d = dim st in
    let cum = Array.make d 0.0 in
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      acc := !acc +. probability st i;
      cum.(i) <- !acc
    done;
    { cum; total = !acc }

  let sample t rng =
    let u = Rng.float rng t.total in
    (* Binary search for the first index with cum >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cum - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

  let counts t rng ~shots =
    let tbl = Hashtbl.create 64 in
    for _ = 1 to shots do
      let i = sample t rng in
      Hashtbl.replace tbl i (1 + Option.value (Hashtbl.find_opt tbl i) ~default:0)
    done;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
end
