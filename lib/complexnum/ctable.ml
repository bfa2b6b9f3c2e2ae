(* Buckets are keyed by an integer mixing the two grid-cell coordinates
   (cell = floor(coord / Cnum.tolerance)). Values within tolerance land in the
   same or an adjacent cell, so a full search probes the 3×3 neighborhood;
   the common case — the value was interned before at (almost) exactly the
   same spot — is served by probing the value's own cell first.

   One open-addressed cell table (an int key array and a head-id array,
   linear probing, load under 1/2) maps a bucket key to the newest id
   stored under it; the per-id [chain] array links each id to the next
   older one in its bucket. The tolerance test reads the dense [re]/[im]
   planes, so an empty cell costs one probe and a hit allocates nothing.
   Cells that share a key share a chain. Only the own cell and its
   neighbours can hold a value within tolerance, and two adjacent cells
   share a key only when their imaginary indices straddle a multiple of
   2^33 at particular real indices, so the walk meets its own cell's
   entries newest first.

   Ids are issued from one cursor in insertion order, so the dense arrays
   grow with the number of weights and nothing else. The search order
   (own cell, then the fixed 3×3 order, newest id first within a bucket)
   decides which of two near-equal representatives a value snaps to, and
   so which output bytes come out: changing it changes f64 results. *)

(* Capacities of a fresh table; powers of two, cells at twice the ids so
   the load stays under 1/2. *)
let ids_min = 64
let cells_min = 2 * ids_min

let inv_tolerance = 1.0 /. Cnum.tolerance

type t = {
  mutable keys : int array;    (* bucket key per cell *)
  mutable heads : int array;   (* newest id in the bucket; -1 = empty cell *)
  mutable used : int;          (* occupied cells *)
  (* Ids issued so far; every id below it is live. *)
  mutable count : int;
  (* Dense per-id arrays, grown together by doubling. [values] holds the
     caller's record, so [canon] is physically stable; the unboxed
     [re]/[im] planes serve the tolerance test and let flat kernels read
     a weight by id without touching a boxed complex. [chain] links an id
     to the next older id in its bucket, -1 at the end. *)
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

let[@inline] cell v = int_of_float (Float.floor (v *. inv_tolerance))

(* 2-D cell -> bucket key. Collisions between distant cells are harmless:
   entries are verified with a tolerance comparison. *)
let[@inline] key cr ci = (cr * 0x1fffffefd) lxor ci

(* Home cell of a bucket key. *)
let[@inline] slot_hash k =
  let h = k * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

(* The cell holding bucket [k], or the empty cell where it would go. *)
let find_cell t k =
  let keys = t.keys and heads = t.heads in
  let mask = Array.length heads - 1 in
  let i = ref (slot_hash k land mask) in
  while heads.(!i) >= 0 && keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let grow_cells t =
  let keys = t.keys and heads = t.heads in
  let cap = 2 * Array.length heads in
  t.keys <- Array.make cap 0;
  t.heads <- Array.make cap (-1);
  Array.iteri
    (fun i h ->
       if h >= 0 then begin
         let j = find_cell t keys.(i) in
         t.keys.(j) <- keys.(i);
         t.heads.(j) <- h
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

(* Store [value] under the next id and make it the newest entry of its
   own cell's bucket. *)
let insert t (value : Cnum.t) =
  let id = t.count in
  if id = Array.length t.values then grow_dense t;
  t.values.(id) <- value;
  t.re.(id) <- value.Cnum.re;
  t.im.(id) <- value.Cnum.im;
  t.count <- id + 1;
  if 2 * (t.used + 1) > Array.length t.heads then grow_cells t;
  let k = key (cell value.Cnum.re) (cell value.Cnum.im) in
  let i = find_cell t k in
  let head = t.heads.(i) in
  if head < 0 then begin
    t.keys.(i) <- k;
    t.used <- t.used + 1
  end
  else Obs.incr c_collisions;
  t.chain.(id) <- head;
  t.heads.(i) <- id;
  id

let add_entry t (value : Cnum.t) =
  let id = insert t value in
  if Obs.enabled () then begin
    Obs.incr c_inserts;
    Obs.set_gauge g_entries t.count
  end;
  id

(* The zero/one seeds take ids 0 and 1: the packed-edge encoding builds
   on [zero_id] = 0. *)
let create () =
  let t =
    { keys = Array.make cells_min 0;
      heads = Array.make cells_min (-1);
      used = 0;
      count = 0;
      values = Array.make ids_min Cnum.zero;
      re = Array.make ids_min 0.0;
      im = Array.make ids_min 0.0;
      chain = Array.make ids_min (-1) }
  in
  ignore (insert t Cnum.zero : int);
  ignore (insert t Cnum.one : int);
  t

(* Newest-first walk of bucket [cr, ci]: the first id within tolerance of
   [c] in both coordinates, or -1. The query stays a record: float
   arguments to a call that is not inlined would be boxed. *)
let probe t cr ci (c : Cnum.t) =
  let id = ref t.heads.(find_cell t (key cr ci)) in
  while
    !id >= 0
    && not
         (Float.abs (t.re.(!id) -. c.Cnum.re) <= Cnum.tolerance
          && Float.abs (t.im.(!id) -. c.Cnum.im) <= Cnum.tolerance)
  do
    id := t.chain.(!id)
  done;
  !id

let find_near t (c : Cnum.t) =
  let cr = cell c.Cnum.re and ci = cell c.Cnum.im in
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

(* The table is append-only, so every id ever handed out lies below
   [count]. *)
let value_of_id t i =
  if i < 0 || i >= t.count then invalid_arg "Ctable.value_of_id";
  t.values.(i)

(* Unboxed single-plane reads with [value_of_id]'s bounds contract, for
   hot paths that fold weights without constructing a [Cnum.t]. *)
let re_of_id t i =
  if i < 0 || i >= t.count then invalid_arg "Ctable.re_of_id";
  t.re.(i)

let im_of_id t i =
  if i < 0 || i >= t.count then invalid_arg "Ctable.im_of_id";
  t.im.(i)

let re_array t = t.re
let im_array t = t.im

(* Exact: every array is charged its capacity plus a header word, the
   record its fields plus a header word, its two floats their boxes, and
   each live entry its boxed value (header + two floats). *)
let memory_bytes t =
  let arr a = 8 * (Array.length a + 1) in
  (8 * (11 + 4))
  + arr t.keys + arr t.heads
  + arr t.values + arr t.re + arr t.im + arr t.chain
  + (t.count * 8 * 3)
