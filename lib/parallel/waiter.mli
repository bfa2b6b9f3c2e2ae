(** Spin-then-park waiting for a condition another domain makes true.

    A hand-off between domains that usually completes within
    microseconds (the pool's next job, its join, the flat phase's next
    compiled gate) is cheapest spun: a condvar round trip costs far more
    than the wait. One that may take milliseconds must not burn a core.
    {!await} spins a fixed number of [Domain.cpu_relax] rounds (about
    20 us on the 2-core Xeon it was measured on) and then parks.

    The condition is the caller's: any predicate over atomics (or data
    published through them). Parking is lost-wakeup-safe: a waiter
    announces itself under the waiter's mutex before it re-checks the
    condition there, and {!wake}, called after the condition was made
    true, reads that announcement; both are atomics, so either the
    waiter's re-check sees the new state or {!wake} sees the waiter and
    signals it under the mutex. *)

type t

val create : unit -> t

val await : t -> (unit -> bool) -> unit
(** [await t ready] returns once [ready ()] holds. Any number of domains
    may wait on one [t], for the same or different conditions. *)

val wake : t -> unit
(** Wakes every parked waiter so it re-checks its condition. Call it
    after every change that may make a waiter's condition true; it
    costs one atomic read when nobody is parked. *)
