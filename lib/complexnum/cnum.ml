type t = { re : float; im : float }

let make re im = { re; im }
let of_float re = { re; im = 0.0 }
let zero = { re = 0.0; im = 0.0 }
let one = { re = 1.0; im = 0.0 }
let minus_one = { re = -1.0; im = 0.0 }
let i = { re = 0.0; im = 1.0 }
let sqrt2_inv = { re = 1.0 /. sqrt 2.0; im = 0.0 }

let polar r theta = { re = r *. cos theta; im = r *. sin theta }

let add a b = { re = a.re +. b.re; im = a.im +. b.im }
let sub a b = { re = a.re -. b.re; im = a.im -. b.im }
let neg a = { re = -.a.re; im = -.a.im }
let conj a = { re = a.re; im = -.a.im }
let scale s a = { re = s *. a.re; im = s *. a.im }

let mul a b =
  { re = (a.re *. b.re) -. (a.im *. b.im); im = (a.re *. b.im) +. (a.im *. b.re) }

let div a b =
  let d = (b.re *. b.re) +. (b.im *. b.im) in
  { re = ((a.re *. b.re) +. (a.im *. b.im)) /. d;
    im = ((a.im *. b.re) -. (a.re *. b.im)) /. d }

let norm2 a = (a.re *. a.re) +. (a.im *. a.im)
let norm a = sqrt (norm2 a)
let arg a = atan2 a.im a.re

let tolerance = 1e-10

let equal ?(tol = tolerance) a b =
  Float.abs (a.re -. b.re) <= tol && Float.abs (a.im -. b.im) <= tol

let is_zero ?(tol = tolerance) a = Float.abs a.re <= tol && Float.abs a.im <= tol
let is_one ?(tol = tolerance) a = equal ~tol a one

let to_string a = Printf.sprintf "%.6g%+.6gi" a.re a.im
let pp fmt a = Format.pp_print_string fmt (to_string a)
