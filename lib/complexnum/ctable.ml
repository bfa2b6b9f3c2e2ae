type entry = { value : Cnum.t; id : int }

(* Buckets are keyed by an integer mixing the two grid-cell coordinates
   (cell = floor(coord / tolerance)). Values within tolerance land in the
   same or an adjacent cell, so a full search probes the 3×3 neighborhood;
   the common case — the value was interned before at (almost) exactly the
   same spot — is served by probing the value's own cell first.

   The bucket store is partitioned into [nstripes] stripes by COARSE grid
   cell (cell >> 2), each with its own table, so a 3×3 cell neighborhood
   touches at most 4 stripes (usually exactly 1). The partition measured
   about 1.7× faster than one table on supremacy-15, single-domain.

   Ids are handed out in per-stripe blocks carved from one cursor. The
   block layout decides which id each weight gets, and so where compute
   cache entries land and which output bytes come out: changing it changes
   f64 results. *)

module Itbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash x = (x * 0x9E3779B1) land max_int
  end)

let nstripes = 64
let block_size = 256

type stripe = {
  s_buckets : entry list ref Itbl.t;
  (* Current id block, [s_block, s_block_end); refilled from [next_id]. *)
  mutable s_block : int;
  mutable s_block_end : int;
}

type t = {
  tolerance : float;
  inv_tolerance : float;
  stripes : stripe array;
  (* Id high-water cursor; block-granular, so [count] (the number of live
     entries) lags it by the stripes' unconsumed block tails. *)
  mutable next_id : int;
  mutable count : int;
  (* Dense id -> value reverse maps, the flat companion of the bucket
     store. [values] holds the physically identical record the bucket
     entry does (so [canon] and [value_of_id] agree up to [==]); the
     unboxed [re]/[im] planes let flat kernels read a weight by id
     without touching a boxed complex. Grown by doubling; [next_id]
     bounds the live prefix. *)
  mutable values : Cnum.t array;
  mutable re : float array;
  mutable im : float array;
}

let zero_id = 0
let one_id = 1

(* Global instrumentation (shared by all tables). A "collision" is an insert
   into a bucket that already holds at least one entry; a "neighbor probe" is
   a lookup that fell past the value's own grid cell into the 3×3 scan. *)
let c_lookups = Obs.counter "ctable.lookups"
let c_hits = Obs.counter "ctable.hits"
let c_inserts = Obs.counter "ctable.inserts"
let c_collisions = Obs.counter "ctable.collisions"
let c_neighbor_probes = Obs.counter "ctable.neighbor_probes"
let g_entries = Obs.gauge "ctable.entries"

let cell t v = int_of_float (Float.floor (v *. t.inv_tolerance))

(* 2-D cell -> bucket key. Collisions between distant cells are harmless:
   entries are verified with a tolerance comparison. *)
let key cr ci = (cr * 0x1fffffefd) lxor ci

let stripe_of_cell cr ci =
  let h = ((cr asr 2) * 0x9E3779B1) lxor ((ci asr 2) * 0x85EBCA77) in
  (h lsr 17) land (nstripes - 1)

let grow_dense t =
  let cap = Array.length t.values in
  let cap' = 2 * cap in
  let values = Array.make cap' Cnum.zero in
  Array.blit t.values 0 values 0 cap;
  t.values <- values;
  let re = Array.make cap' 0.0 in
  Array.blit t.re 0 re 0 cap;
  t.re <- re;
  let im = Array.make cap' 0.0 in
  Array.blit t.im 0 im 0 cap;
  t.im <- im

(* Next id for an insert whose own cell lives in stripe [s]. *)
let alloc_id t s =
  if s.s_block >= s.s_block_end then begin
    let b = t.next_id in
    t.next_id <- b + block_size;
    s.s_block <- b;
    s.s_block_end <- b + block_size
  end;
  let id = s.s_block in
  s.s_block <- id + 1;
  id

(* The id block and the bucket insert both live in the stripe of the
   value's own cell. *)
let add_entry t (value : Cnum.t) =
  let cr = cell t value.Cnum.re and ci = cell t value.Cnum.im in
  let s = t.stripes.(stripe_of_cell cr ci) in
  let id = alloc_id t s in
  while id >= Array.length t.values do
    grow_dense t
  done;
  t.values.(id) <- value;
  t.re.(id) <- value.Cnum.re;
  t.im.(id) <- value.Cnum.im;
  t.count <- t.count + 1;
  let e = { value; id } in
  (match Itbl.find_opt s.s_buckets (key cr ci) with
   | Some l ->
     Obs.incr c_collisions;
     l := e :: !l
   | None -> Itbl.add s.s_buckets (key cr ci) (ref [ e ]));
  if Obs.enabled () then begin
    Obs.incr c_inserts;
    Obs.set_gauge g_entries t.count
  end;
  e

(* The zero/one seeds must land on ids 0 and 1 (the packed-edge encoding
   builds on [zero_id] = 0), so they bypass the block allocator. *)
let raw_insert t (value : Cnum.t) id =
  t.values.(id) <- value;
  t.re.(id) <- value.Cnum.re;
  t.im.(id) <- value.Cnum.im;
  t.count <- t.count + 1;
  let cr = cell t value.Cnum.re and ci = cell t value.Cnum.im in
  let s = t.stripes.(stripe_of_cell cr ci) in
  (match Itbl.find_opt s.s_buckets (key cr ci) with
   | Some l -> l := { value; id } :: !l
   | None -> Itbl.add s.s_buckets (key cr ci) (ref [ { value; id } ]))

let seed t =
  raw_insert t Cnum.zero zero_id;
  raw_insert t Cnum.one one_id;
  t.next_id <- 2

let create ?(tolerance = Cnum.tolerance) () =
  let t =
    { tolerance;
      inv_tolerance = 1.0 /. tolerance;
      stripes =
        Array.init nstripes (fun _ ->
            { s_buckets = Itbl.create (1 lsl 10); s_block = 0; s_block_end = 0 });
      next_id = 0;
      count = 0;
      values = Array.make (1 lsl 10) Cnum.zero;
      re = Array.make (1 lsl 10) 0.0;
      im = Array.make (1 lsl 10) 0.0 }
  in
  seed t;
  t

let rec scan tol (c : Cnum.t) = function
  | [] -> None
  | (e : entry) :: rest ->
    if
      Float.abs (e.value.Cnum.re -. c.Cnum.re) <= tol
      && Float.abs (e.value.Cnum.im -. c.Cnum.im) <= tol
    then Some e
    else scan tol c rest

let probe t cr ci (c : Cnum.t) =
  match Itbl.find_opt t.stripes.(stripe_of_cell cr ci).s_buckets (key cr ci) with
  | None -> None
  | Some l -> scan t.tolerance c !l

let find_near t (c : Cnum.t) =
  let cr = cell t c.Cnum.re and ci = cell t c.Cnum.im in
  (* Own cell first — the overwhelmingly common hit path. *)
  match probe t cr ci c with
  | Some _ as r -> r
  | None ->
    Obs.incr c_neighbor_probes;
    let found = ref None in
    let dr = ref (-1) in
    while !found = None && !dr <= 1 do
      let di = ref (-1) in
      while !found = None && !di <= 1 do
        if not (!dr = 0 && !di = 0) then
          found := probe t (cr + !dr) (ci + !di) c;
        incr di
      done;
      incr dr
    done;
    !found

let lookup t c =
  Obs.incr c_lookups;
  match find_near t c with
  | Some e ->
    Obs.incr c_hits;
    e
  | None -> add_entry t c

let canon t c = (lookup t c).value
let id t c = (lookup t c).id
let count t = t.count

(* The table is append-only (ids are never reassigned outside [clear]),
   so every id handed out since the last [clear] lies below [next_id]. *)
let value_of_id t i =
  if i < 0 || i >= t.next_id then invalid_arg "Ctable.value_of_id";
  t.values.(i)

(* Unboxed single-plane reads with [value_of_id]'s bounds contract, for
   hot paths that fold weights without constructing a [Cnum.t]. *)
let re_of_id t i =
  if i < 0 || i >= t.next_id then invalid_arg "Ctable.re_of_id";
  t.re.(i)

let im_of_id t i =
  if i < 0 || i >= t.next_id then invalid_arg "Ctable.im_of_id";
  t.im.(i)

let re_array t = t.re
let im_array t = t.im

let clear t =
  Array.iter
    (fun s ->
       Itbl.reset s.s_buckets;
       s.s_block <- 0;
       s.s_block_end <- 0)
    t.stripes;
  t.next_id <- 0;
  t.count <- 0;
  seed t

(* Dense reverse arrays are exact (capacity × slot size); the bucket side
   charges one entry record (~5 words) + one list cons (~3 words) + the
   amortized bucket slot (~2 words) per representative. *)
let memory_bytes t =
  (Array.length t.values * 8)          (* values: one pointer word per slot *)
  + (Array.length t.re * 8)
  + (Array.length t.im * 8)
  + (t.count * 8 * 10)
