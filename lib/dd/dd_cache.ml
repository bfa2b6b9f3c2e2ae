(* Direct-mapped compute caches, DDSIM-style: overwrite on collision.
   Decision-diagram operation caches trade hit rate for bounded memory and
   O(1) maintenance; an unbounded Hashtbl would dominate the memory profile
   on irregular circuits. The capacity is a power of two chosen by the
   owning package, which starts small and calls [resize] as its DD grows
   (see [Dd.fit_caches]); a resize drops every entry.

   Keys are arena node indices, which the package's [compact] recycles
   through its free lists. Every entry therefore carries the package epoch
   it was stored under: [find] takes the current epoch and treats an entry
   stamped by an earlier one as a miss, so a slot keyed on a node index
   that was freed and reissued after a GC can never be served stale. This
   is what lets [compact] skip the wholesale cache wipe. A slot stores
   [epoch + 1], so the stamp 0 of a fresh slab means empty and no separate
   occupancy array is needed.

   Node indices are below 2^31 ([Node_store] checks this at allocation),
   so the two node keys of an entry pack into one int [(a lsl 31) lor b].
   Values are packed edges, which are never negative: [find] returns -1 on
   a miss, so a lookup allocates nothing.

   Each cache carries a pair of process-global [Obs] counters (shared by all
   packages that use the same label) next to its per-instance hit/miss
   fields, so `--metrics` runs see aggregate hit rates without threading a
   package handle around. *)

let[@inline] key a b = (a lsl 31) lor b

module Two = struct
  type t = {
    mutable mask : int;
    mutable keys : int array;
    mutable ep : int array;
    mutable vals : int array;
    mutable hits : int;
    mutable misses : int;
    obs_hits : Obs.counter;
    obs_misses : Obs.counter;
  }

  let create ~bits ~label =
    let size = 1 lsl bits in
    { mask = size - 1;
      keys = Array.make size 0;
      ep = Array.make size 0;
      vals = Array.make size 0;
      hits = 0;
      misses = 0;
      obs_hits = Obs.counter (Printf.sprintf "dd.cache.%s.hits" label);
      obs_misses = Obs.counter (Printf.sprintf "dd.cache.%s.misses" label) }

  let slots t = t.mask + 1

  let resize t ~bits =
    let size = 1 lsl bits in
    t.mask <- size - 1;
    t.keys <- Array.make size 0;
    t.ep <- Array.make size 0;
    t.vals <- Array.make size 0

  let[@inline] slot t a b = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) land t.mask

  let find t ~epoch a b =
    let i = slot t a b in
    if t.ep.(i) = epoch + 1 && t.keys.(i) = key a b then begin
      t.hits <- t.hits + 1;
      Obs.incr t.obs_hits;
      t.vals.(i)
    end
    else begin
      t.misses <- t.misses + 1;
      Obs.incr t.obs_misses;
      -1
    end

  let store t ~epoch a b v =
    let i = slot t a b in
    t.keys.(i) <- key a b;
    t.ep.(i) <- epoch + 1;
    t.vals.(i) <- v

  (* Exact: three word-sized arrays of [slots] entries plus their headers. *)
  let memory_bytes t = (slots t * 8 * 3) + (3 * 8)
end

module Three = struct
  type t = {
    mutable mask : int;
    mutable keys : int array;
    mutable k3 : int array;
    mutable ep : int array;
    mutable vals : int array;
    mutable hits : int;
    mutable misses : int;
    obs_hits : Obs.counter;
    obs_misses : Obs.counter;
  }

  let create ~bits ~label =
    let size = 1 lsl bits in
    { mask = size - 1;
      keys = Array.make size 0;
      k3 = Array.make size 0;
      ep = Array.make size 0;
      vals = Array.make size 0;
      hits = 0;
      misses = 0;
      obs_hits = Obs.counter (Printf.sprintf "dd.cache.%s.hits" label);
      obs_misses = Obs.counter (Printf.sprintf "dd.cache.%s.misses" label) }

  let slots t = t.mask + 1

  let resize t ~bits =
    let size = 1 lsl bits in
    t.mask <- size - 1;
    t.keys <- Array.make size 0;
    t.k3 <- Array.make size 0;
    t.ep <- Array.make size 0;
    t.vals <- Array.make size 0

  let[@inline] slot t a b c =
    (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE35) land t.mask

  let find t ~epoch a b c =
    let i = slot t a b c in
    if t.ep.(i) = epoch + 1 && t.keys.(i) = key a b && t.k3.(i) = c then begin
      t.hits <- t.hits + 1;
      Obs.incr t.obs_hits;
      t.vals.(i)
    end
    else begin
      t.misses <- t.misses + 1;
      Obs.incr t.obs_misses;
      -1
    end

  let store t ~epoch a b c v =
    let i = slot t a b c in
    t.keys.(i) <- key a b;
    t.k3.(i) <- c;
    t.ep.(i) <- epoch + 1;
    t.vals.(i) <- v

  let memory_bytes t = (slots t * 8 * 4) + (4 * 8)
end
