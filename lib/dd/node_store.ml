(* Flat, index-based arena for decision-diagram nodes.

   This is the storage half of the DD package: a structure-of-arrays
   arena whose slots are node indices, not pointers. A node at slot [i]
   is its level ([level.(i)]) plus [width] outgoing edges stored as
   packed (target-index, ctable-weight-id) ints in
   [child.(width*i .. width*i + width - 1)]. Slot 0 is the shared
   terminal (level -1); index 0 with weight id 0 is therefore the
   canonical zero edge, which makes the packed zero edge literally the
   integer 0.

   The unique table is sharded: [nshards] independent open-addressed
   tables of node indices, selected by high hash bits, each probed by
   low hash bits and compared directly against the arena fields — the
   node *is* its own key, there is no separate key record to allocate.
   The package is single-domain, so the shards are probed and published
   without any locking.

   Reclamation is real: [sweep] pushes every unmarked slot onto a LIFO
   free list and the next allocation pops it, so long runs with periodic
   GC stay inside one arena footprint instead of growing forever. An
   allocation that finds neither a free slot nor fresh capacity grows the
   arena in place by doubling.

   This module is owned by lib/dd: nothing outside the DD package may
   allocate nodes or forge edges (enforced by the node-alloc-outside-arena
   lint rule); consumers read nodes through [Dd]'s accessors or the raw
   kernel views it exposes. *)

let nshards = 64
let shard_shift = 20 (* hash bits used for the in-shard index are below these *)

type shard = {
  mutable tbl : int array;     (* open-addressed node indices; 0 = empty *)
  mutable occ : int;
}

type t = {
  width : int;                 (* outgoing edges per node: 2 vector, 4 matrix *)
  mutable level : int array;   (* per slot: qubit level; -1 terminal; -2 free *)
  mutable child : int array;   (* width packed edges per slot *)
  mutable mark : Bytes.t;      (* traversal stamps, one byte per slot *)
  mutable stamp : int;         (* current traversal's stamp, 1..255 *)
  mutable next : int;          (* high-water mark: slots [1, next) ever issued *)
  mutable free : int array;    (* global LIFO stack of reclaimed slots *)
  mutable free_len : int;
  mutable live : int;          (* allocated minus freed (terminal excluded) *)
  shards : shard array;
}

(* ------------------------------------------------------------------ *)
(* Packed edges                                                        *)
(* ------------------------------------------------------------------ *)

(* An edge is one native int: low 31 bits target slot, remaining high
   bits the ctable weight id. 2^31 node slots would need >100 GB of
   arena, and 2^31 distinct interned weights >100 GB of ctable, so
   neither field can overflow in a process that fits in memory; the
   slot side is still checked at allocation time. *)
let tgt_bits = 31
let tgt_mask = (1 lsl tgt_bits) - 1

let[@inline] pack ~tgt ~wid = (wid lsl tgt_bits) lor tgt
let[@inline] tgt e = e land tgt_mask
let[@inline] wid e = e lsr tgt_bits

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~width ~capacity =
  if width < 1 then invalid_arg "Node_store.create: width";
  if capacity < 2 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Node_store.create: capacity must be a power of two >= 2";
  let shard_cap = Int.max 16 (2 * capacity / nshards) in
  let a =
    { width;
      level = Array.make capacity (-2);
      child = Array.make (width * capacity) 0;
      mark = Bytes.make capacity '\000';
      stamp = 0;
      next = 1;
      free = Array.make 256 0;
      free_len = 0;
      live = 0;
      shards = Array.init nshards (fun _ -> { tbl = Array.make shard_cap 0; occ = 0 }) }
  in
  a.level.(0) <- -1;
  a

let capacity a = Array.length a.level
let live a = a.live
let high_water a = a.next - 1
let free_slots a = a.free_len

(* Field reads on the hot paths. The [unsafe_get]s are justified by the
   arena invariant that every reachable edge targets a slot below [next],
   which FLATDD_CHECK-era tests exercise heavily with asserts upstream. *)
let[@inline] level a n = Array.unsafe_get a.level n (* qcs-lint: allow unsafe-array *)
let[@inline] child2 a n k = Array.unsafe_get a.child ((2 * n) + k) (* qcs-lint: allow unsafe-array *)
let[@inline] child4 a n k = Array.unsafe_get a.child ((4 * n) + k) (* qcs-lint: allow unsafe-array *)
let level_array a = a.level
let child_array a = a.child

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

(* Packed edges carry the weight id in bits >= 31, and multiplication only
   propagates information upward — so the operand's high bits must be
   folded down ([x lsr 29]) before mixing, and the result's high bits
   after, or every terminal-pointing edge (tgt = 0, the whole bottom level
   of a dense DD) would leave the table index untouched and linear probing
   would degenerate into long collision chains. *)
let[@inline] mix h x =
  let x = (x lxor (x lsr 29)) * 0x9E3779B1 in
  let h = (h lxor x) * 0x85EBCA77 in
  h lxor (h lsr 17)

let[@inline] hash2 level c0 c1 = mix (mix (mix 0x3B9 level) c0) c1

let[@inline] hash4 level c0 c1 c2 c3 =
  mix (mix (mix (mix (mix 0x9D7 level) c0) c1) c2) c3

let[@inline] shard_of a h = Array.unsafe_get a.shards ((h lsr shard_shift) land (nshards - 1)) (* qcs-lint: allow unsafe-array *)

let[@inline] node_hash a n =
  let base = a.width * n in
  if a.width = 2 then hash2 a.level.(n) a.child.(base) a.child.(base + 1)
  else
    hash4 a.level.(n) a.child.(base) a.child.(base + 1) a.child.(base + 2)
      a.child.(base + 3)

(* ------------------------------------------------------------------ *)
(* Shard probing and insertion                                         *)
(* ------------------------------------------------------------------ *)

let probe2 a s h ~level c0 c1 =
  let tbl = s.tbl in
  let mask = Array.length tbl - 1 in
  let i = ref (h land mask) in
  let res = ref (-1) in
  let probing = ref true in
  while !probing do
    let n = tbl.(!i) in
    if n = 0 then probing := false
    else if
      a.level.(n) = level && a.child.(2 * n) = c0 && a.child.((2 * n) + 1) = c1
    then begin
      res := n;
      probing := false
    end
    else i := (!i + 1) land mask
  done;
  !res

let probe4 a s h ~level c0 c1 c2 c3 =
  let tbl = s.tbl in
  let mask = Array.length tbl - 1 in
  let i = ref (h land mask) in
  let res = ref (-1) in
  let probing = ref true in
  while !probing do
    let n = tbl.(!i) in
    if n = 0 then probing := false
    else begin
      let b = 4 * n in
      if
        a.level.(n) = level
        && a.child.(b) = c0
        && a.child.(b + 1) = c1
        && a.child.(b + 2) = c2
        && a.child.(b + 3) = c3
      then begin
        res := n;
        probing := false
      end
      else i := (!i + 1) land mask
    end
  done;
  !res

let shard_insert s h n =
  let tbl = s.tbl in
  let mask = Array.length tbl - 1 in
  let i = ref (h land mask) in
  while tbl.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  tbl.(!i) <- n;
  s.occ <- s.occ + 1

(* Grow a shard in place: build the doubled table aside, then swap it in. *)
let grow_shard a s =
  let old = s.tbl in
  let tbl = Array.make (2 * Array.length old) 0 in
  s.occ <- 0;
  let fresh = { s with tbl } in
  Array.iter (fun n -> if n <> 0 then shard_insert fresh (node_hash a n) n) old;
  s.occ <- fresh.occ;
  s.tbl <- tbl

(* Keep the per-shard load factor under 1/2 so linear probing stays short. *)
let[@inline] maybe_grow_shard a s =
  if 2 * (s.occ + 1) > Array.length s.tbl then grow_shard a s

let rebuild_shards a =
  Array.iter
    (fun s ->
       Array.fill s.tbl 0 (Array.length s.tbl) 0;
       s.occ <- 0)
    a.shards;
  for n = 1 to a.next - 1 do
    if a.level.(n) >= 0 then begin
      let h = node_hash a n in
      let s = shard_of a h in
      maybe_grow_shard a s;
      shard_insert s h n
    end
  done

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let grow_arena a =
  let cap = capacity a in
  let cap' = 2 * cap in
  let level = Array.make cap' (-2) in
  Array.blit a.level 0 level 0 cap;
  a.level <- level;
  let child = Array.make (a.width * cap') 0 in
  Array.blit a.child 0 child 0 (a.width * cap);
  a.child <- child;
  let mark = Bytes.make cap' '\000' in
  Bytes.blit a.mark 0 mark 0 cap;
  a.mark <- mark

(* Slot source: the free list first, then the high-water cursor,
   growing the arena when it is exhausted. *)
let fresh_slot a =
  if a.free_len > 0 then begin
    a.free_len <- a.free_len - 1;
    a.free.(a.free_len)
  end
  else begin
    if a.next = capacity a then grow_arena a;
    let n = a.next in
    if n > tgt_mask then failwith "Node_store: arena index overflow";
    a.next <- n + 1;
    n
  end

(* ------------------------------------------------------------------ *)
(* Find-or-allocate (the unique-table operation)                       *)
(* ------------------------------------------------------------------ *)

(* Both return the node's slot; a miss allocates and bumps [live], which
   is how callers tell a fresh node from a reused one without a tuple. *)
let intern2 a ~level c0 c1 =
  let h = hash2 level c0 c1 in
  let s = shard_of a h in
  match probe2 a s h ~level c0 c1 with
  | n when n >= 0 -> n
  | _ ->
    maybe_grow_shard a s;
    let n = fresh_slot a in
    a.level.(n) <- level;
    a.child.(2 * n) <- c0;
    a.child.((2 * n) + 1) <- c1;
    a.live <- a.live + 1;
    shard_insert s h n;
    n

let intern4 a ~level c0 c1 c2 c3 =
  let h = hash4 level c0 c1 c2 c3 in
  let s = shard_of a h in
  match probe4 a s h ~level c0 c1 c2 c3 with
  | n when n >= 0 -> n
  | _ ->
    maybe_grow_shard a s;
    let n = fresh_slot a in
    a.level.(n) <- level;
    let b = 4 * n in
    a.child.(b) <- c0;
    a.child.(b + 1) <- c1;
    a.child.(b + 2) <- c2;
    a.child.(b + 3) <- c3;
    a.live <- a.live + 1;
    shard_insert s h n;
    n

(* Lookup only: the slot of the node, or -1. Never allocates, so it is
   safe while a raw view of the arena is held. *)
let find4 a ~level c0 c1 c2 c3 =
  let h = hash4 level c0 c1 c2 c3 in
  probe4 a (shard_of a h) h ~level c0 c1 c2 c3

let push_free a n =
  if a.free_len = Array.length a.free then begin
    let free = Array.make (2 * a.free_len) 0 in
    Array.blit a.free 0 free 0 a.free_len;
    a.free <- free
  end;
  a.free.(a.free_len) <- n;
  a.free_len <- a.free_len + 1

(* ------------------------------------------------------------------ *)
(* Marking and sweep                                                   *)
(* ------------------------------------------------------------------ *)

(* A traversal marks the slots it visits with a fresh stamp, so marks
   never need an unmarking pass: [begin_mark] retires every older mark at
   once. Freed and grown slots keep older stamps or 0, never the current
   one; on wrap past 255 all bytes are cleared. Every traversal calls
   [begin_mark] before its first [marked]. *)
let begin_mark a =
  if a.stamp = 255 then begin
    Bytes.fill a.mark 0 (Bytes.length a.mark) '\000';
    a.stamp <- 1
  end
  else a.stamp <- a.stamp + 1

let[@inline] marked a n = Char.code (Bytes.unsafe_get a.mark n) = a.stamp (* qcs-lint: allow unsafe-array *)
let[@inline] set_mark a n = Bytes.unsafe_set a.mark n (Char.unsafe_chr a.stamp) (* qcs-lint: allow unsafe-array *)

(* Frees every allocated slot not marked since the last [begin_mark], and
   rebuilds the unique-table shards over the survivors. Returns the
   number of slots reclaimed. Freed slots keep their index on the free
   list and are handed back by later allocations; the epoch stamp kept by
   the package is what protects compute-cache entries from the reuse. *)
let sweep a =
  let freed = ref 0 in
  for n = 1 to a.next - 1 do
    if a.level.(n) >= 0 && not (marked a n) then begin
      a.level.(n) <- -2;
      Array.fill a.child (a.width * n) a.width 0;
      push_free a n;
      a.live <- a.live - 1;
      incr freed
    end
  done;
  if !freed > 0 then rebuild_shards a;
  !freed

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* Exact arithmetic over the arena's actual allocations: every array is
   charged capacity × 8 bytes plus its header word, the mark bytes at one
   byte per slot. No per-node estimate constants. *)
let memory_bytes a =
  let shard_bytes =
    Array.fold_left (fun acc s -> acc + (8 * (Array.length s.tbl + 1))) 0 a.shards
  in
  (8 * (Array.length a.level + 1))
  + (8 * (Array.length a.child + 1))
  + (Bytes.length a.mark + 8)
  + (8 * (Array.length a.free + 1))
  + shard_bytes
