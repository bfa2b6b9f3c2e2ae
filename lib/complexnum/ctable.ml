(* Buckets are keyed by an integer mixing the two grid-cell coordinates
   (cell = floor(coord / tolerance)). Values within tolerance land in the
   same or an adjacent cell, so a full search probes the 3×3 neighborhood;
   the common case — the value was interned before at (almost) exactly the
   same spot — is served by probing the value's own cell first.

   The bucket store is partitioned into [nstripes] stripes by COARSE grid
   cell (cell >> 2), so a 3×3 cell neighborhood touches at most 4 stripes
   (usually exactly 1). Each stripe owns one open-addressed cell table —
   an int key array and a head-id array, linear probing, load under 1/2 —
   mapping a bucket key to the newest id stored under it; the per-id
   [chain] array links each id to the next older one in its bucket. The
   tolerance test reads the dense [re]/[im] planes, so an empty cell
   costs one probe and a hit allocates nothing. One small table per
   stripe also keeps growth incremental: a doubling rehashes one
   stripe's cells, not the whole store.

   Ids are handed out in per-stripe blocks carved from one cursor. The
   block layout decides which id each weight gets, and so where compute
   cache entries land and which output bytes come out: changing it changes
   f64 results. So does the search order (own cell, then the fixed 3×3
   order, newest id first within a bucket), which decides which of two
   near-equal representatives a value snaps to. *)

let nstripes = 64
let block_size = 256

(* Cells per stripe in a fresh (or cleared) table; a power of two. *)
let cells_min = 32

type stripe = {
  mutable keys : int array;    (* bucket key per cell *)
  mutable heads : int array;   (* newest id in the bucket; -1 = empty cell *)
  mutable used : int;          (* occupied cells *)
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
  (* Dense per-id arrays, grown together by doubling; [next_id] bounds
     the live prefix. [values] holds the caller's record, so [canon] is
     physically stable; the unboxed [re]/[im] planes serve the tolerance
     test and let flat kernels read a weight by id without touching a
     boxed complex. [chain] links an id to the next older id in its
     bucket, -1 at the end. *)
  mutable values : Cnum.t array;
  mutable re : float array;
  mutable im : float array;
  mutable chain : int array;
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

let[@inline] cell t v = int_of_float (Float.floor (v *. t.inv_tolerance))

(* 2-D cell -> bucket key. Collisions between distant cells are harmless:
   entries are verified with a tolerance comparison. *)
let[@inline] key cr ci = (cr * 0x1fffffefd) lxor ci

let[@inline] stripe_of_cell cr ci =
  let h = ((cr asr 2) * 0x9E3779B1) lxor ((ci asr 2) * 0x85EBCA77) in
  (h lsr 17) land (nstripes - 1)

(* Home cell of a bucket key in its stripe's table. *)
let[@inline] slot_hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

let new_stripe () =
  { keys = Array.make cells_min 0;
    heads = Array.make cells_min (-1);
    used = 0;
    s_block = 0;
    s_block_end = 0 }

(* The cell holding bucket [k], or the empty cell where it would go. *)
let find_cell s k =
  let keys = s.keys and heads = s.heads in
  let mask = Array.length heads - 1 in
  let i = ref (slot_hash k land mask) in
  while heads.(!i) >= 0 && keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let grow_cells s =
  let keys = s.keys and heads = s.heads in
  let cap = 2 * Array.length heads in
  s.keys <- Array.make cap 0;
  s.heads <- Array.make cap (-1);
  Array.iteri
    (fun i h ->
       if h >= 0 then begin
         let j = find_cell s keys.(i) in
         s.keys.(j) <- keys.(i);
         s.heads.(j) <- h
       end)
    heads

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
  t.im <- im;
  let chain = Array.make cap' (-1) in
  Array.blit t.chain 0 chain 0 cap;
  t.chain <- chain

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

(* Store [value] under [id] and make it the newest entry of its own
   cell's bucket. *)
let insert t s (value : Cnum.t) id k =
  while id >= Array.length t.values do
    grow_dense t
  done;
  t.values.(id) <- value;
  t.re.(id) <- value.Cnum.re;
  t.im.(id) <- value.Cnum.im;
  t.count <- t.count + 1;
  if 2 * (s.used + 1) > Array.length s.heads then grow_cells s;
  let i = find_cell s k in
  let head = s.heads.(i) in
  if head < 0 then begin
    s.keys.(i) <- k;
    s.used <- s.used + 1
  end
  else Obs.incr c_collisions;
  t.chain.(id) <- head;
  s.heads.(i) <- id

(* The id block and the bucket insert both live in the stripe of the
   value's own cell. *)
let add_entry t (value : Cnum.t) =
  let cr = cell t value.Cnum.re and ci = cell t value.Cnum.im in
  let s = t.stripes.(stripe_of_cell cr ci) in
  let id = alloc_id t s in
  insert t s value id (key cr ci);
  if Obs.enabled () then begin
    Obs.incr c_inserts;
    Obs.set_gauge g_entries t.count
  end;
  id

(* The zero/one seeds must land on ids 0 and 1 (the packed-edge encoding
   builds on [zero_id] = 0), so they bypass the block allocator. *)
let seed t =
  let raw_insert (value : Cnum.t) id =
    let cr = cell t value.Cnum.re and ci = cell t value.Cnum.im in
    insert t t.stripes.(stripe_of_cell cr ci) value id (key cr ci)
  in
  raw_insert Cnum.zero zero_id;
  raw_insert Cnum.one one_id;
  t.next_id <- 2

let create ?(tolerance = Cnum.tolerance) () =
  let t =
    { tolerance;
      inv_tolerance = 1.0 /. tolerance;
      stripes = Array.init nstripes (fun _ -> new_stripe ());
      next_id = 0;
      count = 0;
      values = Array.make (1 lsl 10) Cnum.zero;
      re = Array.make (1 lsl 10) 0.0;
      im = Array.make (1 lsl 10) 0.0;
      chain = Array.make (1 lsl 10) (-1) }
  in
  seed t;
  t

(* Newest-first walk of bucket [cr, ci]: the first id within tolerance of
   [c] in both coordinates, or -1. The query stays a record: float
   arguments to a call that is not inlined would be boxed. *)
let probe t cr ci (c : Cnum.t) =
  let s = t.stripes.(stripe_of_cell cr ci) in
  let id = ref s.heads.(find_cell s (key cr ci)) in
  while
    !id >= 0
    && not
         (Float.abs (t.re.(!id) -. c.Cnum.re) <= t.tolerance
          && Float.abs (t.im.(!id) -. c.Cnum.im) <= t.tolerance)
  do
    id := t.chain.(!id)
  done;
  !id

let find_near t (c : Cnum.t) =
  let cr = cell t c.Cnum.re and ci = cell t c.Cnum.im in
  (* Own cell first — the overwhelmingly common hit path. *)
  let found = ref (probe t cr ci c) in
  if !found < 0 then begin
    Obs.incr c_neighbor_probes;
    let dr = ref (-1) in
    while !found < 0 && !dr <= 1 do
      let di = ref (-1) in
      while !found < 0 && !di <= 1 do
        if not (!dr = 0 && !di = 0) then
          found := probe t (cr + !dr) (ci + !di) c;
        incr di
      done;
      incr dr
    done
  end;
  !found

let id t (c : Cnum.t) =
  Obs.incr c_lookups;
  let i = find_near t c in
  if i >= 0 then begin
    Obs.incr c_hits;
    i
  end
  else add_entry t c

let canon t c = t.values.(id t c)
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

(* Cell tables that grew go back to [cells_min], so an idle warm package
   does not hold a large job's tables; the dense arrays keep their size. *)
let clear t =
  Array.iter
    (fun s ->
       if Array.length s.heads > cells_min then begin
         s.keys <- Array.make cells_min 0;
         s.heads <- Array.make cells_min (-1)
       end
       else Array.fill s.heads 0 cells_min (-1);
       s.used <- 0;
       s.s_block <- 0;
       s.s_block_end <- 0)
    t.stripes;
  t.next_id <- 0;
  t.count <- 0;
  seed t

(* Exact: every array is charged its capacity plus a header word, every
   record its fields plus a header word, and each live entry its boxed
   value (header + two floats). *)
let memory_bytes t =
  let arr a = 8 * (Array.length a + 1) in
  let stripe_bytes =
    Array.fold_left (fun acc s -> acc + arr s.keys + arr s.heads + (8 * 6)) 0 t.stripes
  in
  (8 * (10 + 4))                       (* the record and its two boxed floats *)
  + arr t.stripes + stripe_bytes
  + arr t.values + arr t.re + arr t.im + arr t.chain
  + (t.count * 8 * 3)
