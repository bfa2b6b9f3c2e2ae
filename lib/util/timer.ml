(* Wall-clock timing. [Unix.gettimeofday] is the only sub-second wall clock
   in the compiler distribution; experiment runs are far longer than any
   realistic NTP adjustment, so non-monotonicity is not a concern here. *)

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let time f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, Int64.to_float (Int64.sub t1 t0) *. 1e-9)

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (r, Int64.sub t1 t0)

let now () = Unix.gettimeofday ()
let ns_since t0 = Float.to_int ((Unix.gettimeofday () -. t0) *. 1e9)
