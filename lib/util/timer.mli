(** Wall-clock timing for the experiment harness. *)

val now_ns : unit -> int64
(** Wall-clock reading in nanoseconds (gettimeofday-based — see timer.ml
    for why that is the right tradeoff here). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with elapsed seconds. *)

val time_ns : (unit -> 'a) -> 'a * int64
(** Same, in nanoseconds. *)
