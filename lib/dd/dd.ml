(* Arena-backed QMDD core.

   Nodes live in flat [Node_store] arenas and are named by integer slot
   indices; an edge is one packed int carrying (target slot, ctable weight
   id) — see node_store.ml for the layout. Because the terminal is slot 0
   and the zero weight is id 0, the zero edge of either kind is literally
   the integer 0, which keeps the hot-path zero tests branch-cheap.

   All numeric behavior is inherited from the boxed implementation this
   replaces: edge weights are canonical ctable values addressed by id, node
   construction normalizes by the larger-magnitude child weight with the
   identical division/interning order, and the compute caches factor
   operand weights out of their keys. The old physical-equality fast path
   (`w == norm`) becomes weight-id equality — the ctable hands out one
   record per representative, so the two tests are equivalent.

   Reclamation is real here: [compact] marks from the given roots, sweeps
   both arenas onto their free lists, and bumps the package [epoch] instead
   of wiping the compute caches; [Dd_cache] rejects entries stamped by an
   older epoch, so a cache slot keyed on a recycled node index can never be
   served stale.

   The package is single-domain, like DDSIM's: one set of compute caches,
   unlocked unique tables and an unlocked weight table. Parallelism lives
   in the flat phase (DD→flat conversion and DMAV), whose pool tasks only
   read the package through the raw kernel views. *)

type vnode = int
type mnode = int
type vedge = int
type medge = int

let[@inline] edge_tgt e = Node_store.tgt e
let[@inline] edge_wid e = Node_store.wid e
let[@inline] pack t w = Node_store.pack ~tgt:t ~wid:w

let vterminal : vnode = 0
let mterminal : mnode = 0
let vzero : vedge = 0
let mzero : medge = 0
let vone : vedge = pack 0 Ctable.one_id
let mone : medge = pack 0 Ctable.one_id

(* Constructors collapse every zero-weight edge to the packed 0, so the
   weight-id test is the whole story. *)
let[@inline] vedge_is_zero (e : vedge) = edge_wid e = 0
let[@inline] medge_is_zero (e : medge) = edge_wid e = 0

type package = {
  ct : Ctable.t;
  va : Node_store.t;                  (* vector arena, width 2 *)
  ma : Node_store.t;                  (* matrix arena, width 4 *)
  mutable epoch : int;                (* bumped by [compact] *)
  (* Compute caches keyed on node indices (operands' weights are factored
     out before lookup, see the ops below). *)
  mv_cache : Dd_cache.Two.t;
  mm_cache : Dd_cache.Two.t;
  vadd_cache : Dd_cache.Three.t;
  madd_cache : Dd_cache.Three.t;
  (* Scratch of [priced_paths], one entry per matrix slot, refitted to
     the arena's capacity on entry: [walk_tag.(n)] is the walk's stamp
     once slot [n] is counted (odd when [n] is the canonical identity of
     its level), [walk_terminal.(n)], [walk_stripe.(n)] and
     [walk_visits.(n)] its three counts.
     Stamps step by 2, so a new walk retires every older entry without
     clearing. *)
  mutable walk_tag : int array;
  mutable walk_terminal : float array;
  mutable walk_stripe : float array;
  mutable walk_visits : float array;
  mutable walk_stamp : int;
  (* Scratch of [export], stamped by [walk_stamp] like the walk above:
     per matrix slot its exported slot, and per weight id its stamp and
     exported id. *)
  mutable walk_slot : int array;
  mutable wid_tag : int array;
  mutable wid_slot : int array;
}

(* Global instrumentation, shared across packages. *)
let c_vnodes_created = Obs.counter "dd.unique.vnodes.created"
let c_vnodes_reused = Obs.counter "dd.unique.vnodes.reused"
let c_mnodes_created = Obs.counter "dd.unique.mnodes.created"
let c_mnodes_reused = Obs.counter "dd.unique.mnodes.reused"
let c_gc_runs = Obs.counter "dd.gc.runs"
let c_gc_vnodes_dropped = Obs.counter "dd.gc.vnodes_dropped"
let c_gc_mnodes_dropped = Obs.counter "dd.gc.mnodes_dropped"
let g_live_vnodes = Obs.gauge "dd.unique.vnodes.live"
let g_live_mnodes = Obs.gauge "dd.unique.mnodes.live"
let g_peak_vnodes = Obs.gauge "dd.unique.vnodes.peak"
let g_peak_mnodes = Obs.gauge "dd.unique.mnodes.peak"
let g_varena_capacity = Obs.gauge "dd.arena.vnodes.capacity"
let g_marena_capacity = Obs.gauge "dd.arena.mnodes.capacity"
let g_varena_free = Obs.gauge "dd.arena.vnodes.free"
let g_marena_free = Obs.gauge "dd.arena.mnodes.free"
let g_cache_slots = Obs.gauge "dd.cache.slots"

(* The four compute caches share one capacity, 2^cache_bits_min slots in a
   fresh package. [fit_caches] grows them in 4x steps while the live nodes
   outnumber the slots, up to 2^cache_bits_max. With 4x steps a package
   grows at most three times, leaving few dropped slabs for the GC. The
   floor stays at 2^10 however small the DD: cache size decides which
   slot each entry lands in, and so which entries evict each other. *)
let cache_bits_min = 10
let cache_bits_max = 16

(* Every run builds its own package, so a fresh one is small: the arenas
   and the weight table double as the DD grows. *)
let arena_slots_min = 1 lsl 8

let create () =
  Obs.max_gauge g_cache_slots (1 lsl cache_bits_min);
  { ct = Ctable.create ();
    va = Node_store.create ~width:2 ~capacity:arena_slots_min;
    ma = Node_store.create ~width:4 ~capacity:arena_slots_min;
    epoch = 0;
    mv_cache = Dd_cache.Two.create ~bits:cache_bits_min ~label:"mv";
    mm_cache = Dd_cache.Two.create ~bits:cache_bits_min ~label:"mm";
    vadd_cache = Dd_cache.Three.create ~bits:cache_bits_min ~label:"vadd";
    madd_cache = Dd_cache.Three.create ~bits:cache_bits_min ~label:"madd";
    walk_tag = [||];
    walk_terminal = [||];
    walk_stripe = [||];
    walk_visits = [||];
    walk_stamp = 0;
    walk_slot = [||];
    wid_tag = [||];
    wid_slot = [||] }

let cache_slots p = Dd_cache.Two.slots p.mv_cache

let resize_caches p ~bits =
  Dd_cache.Two.resize p.mv_cache ~bits;
  Dd_cache.Two.resize p.mm_cache ~bits;
  Dd_cache.Three.resize p.vadd_cache ~bits;
  Dd_cache.Three.resize p.madd_cache ~bits

(* Called on entry to the top-level [mv]/[mm] only: the check stays off the
   recursion's hot path, and an operation never loses its own entries
   halfway through. The target size is reached in one allocation. *)
let fit_caches p =
  let live = Node_store.live p.va + Node_store.live p.ma in
  let slots = cache_slots p in
  if live > slots && slots < 1 lsl cache_bits_max then begin
    let bits = ref (Bits.log2_exact slots) in
    while live > 1 lsl !bits && !bits < cache_bits_max do
      bits := !bits + 2
    done;
    resize_caches p ~bits:!bits;
    Obs.max_gauge g_cache_slots (1 lsl !bits)
  end

let ctable p = p.ct
let epoch p = p.epoch

let[@inline] value p wid = Ctable.value_of_id p.ct wid

(* ------------------------------------------------------------------ *)
(* Edge and node accessors                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] vtgt (e : vedge) : vnode = edge_tgt e
let[@inline] mtgt (e : medge) : mnode = edge_tgt e
let[@inline] mwid (e : medge) = edge_wid e
let[@inline] vw p (e : vedge) = value p (edge_wid e)
let[@inline] mw p (e : medge) = value p (edge_wid e)

let[@inline] vid (n : vnode) = n
let[@inline] mid (n : mnode) = n
let[@inline] vlevel p (n : vnode) = Node_store.level p.va n
let[@inline] mlevel p (n : mnode) = Node_store.level p.ma n
let[@inline] v0 p (n : vnode) : vedge = Node_store.child2 p.va n 0
let[@inline] v1 p (n : vnode) : vedge = Node_store.child2 p.va n 1

let mchild p (n : mnode) i j : medge =
  if i < 0 || i > 1 || j < 0 || j > 1 then invalid_arg "Dd.mchild";
  Node_store.child4 p.ma n ((2 * i) + j)

let medge_child p (e : medge) i j = mchild p (edge_tgt e) i j

let vterm_edge p (w : Cnum.t) : vedge =
  let wid = Ctable.id p.ct w in
  if wid = 0 then vzero else pack 0 wid

let mterm_edge p (w : Cnum.t) : medge =
  let wid = Ctable.id p.ct w in
  if wid = 0 then mzero else pack 0 wid

let[@inline] munit (n : mnode) : medge = pack n Ctable.one_id

(* ------------------------------------------------------------------ *)
(* Normalized node construction                                        *)
(* ------------------------------------------------------------------ *)

let make_vnode p level (e0 : vedge) (e1 : vedge) : vedge =
  assert (level >= 0);
  if e0 = 0 && e1 = 0 then vzero
  else begin
    assert (vedge_is_zero e0 || Node_store.level p.va (edge_tgt e0) = level - 1);
    assert (vedge_is_zero e1 || Node_store.level p.va (edge_tgt e1) = level - 1);
    (* Normalize by the larger-magnitude weight (ties favor the low edge),
       so equal sub-vectors always produce the identical node. *)
    let w0in = edge_wid e0 and w1in = edge_wid e1 in
    let v0in = value p w0in and v1in = value p w1in in
    let n0 = Cnum.norm2 v0in and n1 = Cnum.norm2 v1in in
    let normid, norm = if n1 > n0 then w1in, v1in else w0in, v0in in
    let divn (wid : int) (wv : Cnum.t) =
      if wid = normid then Ctable.one_id
      else if wid = 0 then 0
      else Ctable.id p.ct (Cnum.div wv norm)
    in
    let w0 = divn w0in v0in and w1 = divn w1in v1in in
    let c0 = if w0 = 0 then vzero else pack (edge_tgt e0) w0 in
    let c1 = if w1 = 0 then vzero else pack (edge_tgt e1) w1 in
    let live = Node_store.live p.va in
    let node = Node_store.intern2 p.va ~level c0 c1 in
    if Node_store.live p.va > live then begin
      if Obs.enabled () then begin
        Obs.incr c_vnodes_created;
        Obs.max_gauge g_peak_vnodes (Node_store.live p.va)
      end
    end
    else Obs.incr c_vnodes_reused;
    pack node normid
  end

(* An edge of a new matrix node over the node's norm, the weight of
   edge [normid]: an edge carrying the norm's own weight divides to
   exactly one (w/w is 1 + 0i in [Cnum.div]), which interns to
   [one_id]. *)
let[@inline] mdiv p norm normid (e : medge) : medge =
  if e = 0 then mzero
  else if edge_wid e = normid then pack (edge_tgt e) Ctable.one_id
  else
    let w = Ctable.id p.ct (Cnum.div (value p (edge_wid e)) norm) in
    if w = 0 then mzero else pack (edge_tgt e) w

(* The normalization invariant: the pick starts from zero weight; at least
   one edge is non-zero so [norm] is non-zero. Written without closures:
   gate DDs are built beside the flat phase's executor, whose domains
   wait out every minor collection. *)
let make_mnode p level (e00 : medge) (e01 : medge) (e10 : medge) (e11 : medge) :
    medge =
  assert (level >= 0);
  if e00 = 0 && e01 = 0 && e10 = 0 && e11 = 0 then mzero
  else begin
    (* Largest-magnitude weight wins; ties favor the earlier edge in
       row-major order (the fold starts from the zero weight). *)
    let normid = ref 0 and normn = ref 0.0 in
    let w = edge_wid e00 in
    let n = Cnum.norm2 (value p w) in
    if n > !normn then begin
      normid := w;
      normn := n
    end;
    let w = edge_wid e01 in
    let n = Cnum.norm2 (value p w) in
    if n > !normn then begin
      normid := w;
      normn := n
    end;
    let w = edge_wid e10 in
    let n = Cnum.norm2 (value p w) in
    if n > !normn then begin
      normid := w;
      normn := n
    end;
    let w = edge_wid e11 in
    let n = Cnum.norm2 (value p w) in
    if n > !normn then normid := w;
    let normid = !normid in
    let norm = value p normid in
    let d00 = mdiv p norm normid e00 and d01 = mdiv p norm normid e01
    and d10 = mdiv p norm normid e10 and d11 = mdiv p norm normid e11 in
    let live = Node_store.live p.ma in
    let node = Node_store.intern4 p.ma ~level d00 d01 d10 d11 in
    if Node_store.live p.ma > live then begin
      if Obs.enabled () then begin
        Obs.incr c_mnodes_created;
        Obs.max_gauge g_peak_mnodes (Node_store.live p.ma)
      end
    end
    else Obs.incr c_mnodes_reused;
    pack node normid
  end

let vscale p (e : vedge) (w : Cnum.t) : vedge =
  if e = 0 then vzero
  else
    let w' = Ctable.id p.ct (Cnum.mul (value p (edge_wid e)) w) in
    if w' = 0 then vzero else pack (edge_tgt e) w'

let mscale p (e : medge) (w : Cnum.t) : medge =
  if e = 0 then mzero
  else
    let w' = Ctable.id p.ct (Cnum.mul (value p (edge_wid e)) w) in
    if w' = 0 then mzero else pack (edge_tgt e) w'

(* ------------------------------------------------------------------ *)
(* Addition                                                            *)
(* ------------------------------------------------------------------ *)

(* a + b with a = wa·A, b = wb·B  =  wa · (A + (wb/wa)·B); the cache is
   keyed on (A, B, wb/wa), making hits independent of common factors. *)
let rec vadd p (a : vedge) (b : vedge) : vedge =
  if a = 0 then b
  else if b = 0 then a
  else if edge_tgt a = 0 then begin
    let wid = Ctable.id p.ct (Cnum.add (vw p a) (vw p b)) in
    if wid = 0 then vzero else pack 0 wid
  end
  else begin
    let at = edge_tgt a and bt = edge_tgt b in
    assert (Node_store.level p.va at = Node_store.level p.va bt);
    let rid = Ctable.id p.ct (Cnum.div (vw p b) (vw p a)) in
    let ratio = value p rid in
    let unit_sum =
      let r = Dd_cache.Three.find p.vadd_cache ~epoch:p.epoch at bt rid in
      if r >= 0 then r
      else begin
        let r0 = vadd p (v0 p at) (vscale p (v0 p bt) ratio) in
        let r1 = vadd p (v1 p at) (vscale p (v1 p bt) ratio) in
        let r = make_vnode p (Node_store.level p.va at) r0 r1 in
        Dd_cache.Three.store p.vadd_cache ~epoch:p.epoch at bt rid r;
        r
      end
    in
    vscale p unit_sum (vw p a)
  end

let rec madd p (a : medge) (b : medge) : medge =
  if a = 0 then b
  else if b = 0 then a
  else if edge_tgt a = 0 then begin
    let wid = Ctable.id p.ct (Cnum.add (mw p a) (mw p b)) in
    if wid = 0 then mzero else pack 0 wid
  end
  else begin
    let at = edge_tgt a and bt = edge_tgt b in
    assert (Node_store.level p.ma at = Node_store.level p.ma bt);
    let rid = Ctable.id p.ct (Cnum.div (mw p b) (mw p a)) in
    let ratio = value p rid in
    let unit_sum =
      let r = Dd_cache.Three.find p.madd_cache ~epoch:p.epoch at bt rid in
      if r >= 0 then r
      else begin
        let ch i = Node_store.child4 p.ma at i
        and bch i = Node_store.child4 p.ma bt i in
        let r00 = madd p (ch 0) (mscale p (bch 0) ratio) in
        let r01 = madd p (ch 1) (mscale p (bch 1) ratio) in
        let r10 = madd p (ch 2) (mscale p (bch 2) ratio) in
        let r11 = madd p (ch 3) (mscale p (bch 3) ratio) in
        let r = make_mnode p (Node_store.level p.ma at) r00 r01 r10 r11 in
        Dd_cache.Three.store p.madd_cache ~epoch:p.epoch at bt rid r;
        r
      end
    in
    mscale p unit_sum (mw p a)
  end

(* ------------------------------------------------------------------ *)
(* Matrix-vector and matrix-matrix products                            *)
(* ------------------------------------------------------------------ *)

(* Weights are factored out: the recursion works on nodes as if their
   incoming weights were 1, and the caller scales the result, so the cache
   is keyed on the node pair alone. *)
let rec mv_nodes p (m : mnode) (v : vnode) : vedge =
  if m = 0 then begin
    assert (v = 0);
    vone
  end
  else
    let r = Dd_cache.Two.find p.mv_cache ~epoch:p.epoch m v in
    if r >= 0 then r
    else begin
      assert (Node_store.level p.ma m = Node_store.level p.va v);
      let part (me : medge) (ve : vedge) =
        if me = 0 || ve = 0 then vzero
        else
          let sub = mv_nodes p (edge_tgt me) (edge_tgt ve) in
          vscale p sub (Cnum.mul (mw p me) (vw p ve))
      in
      let mc i = Node_store.child4 p.ma m i in
      let vl = v0 p v and vh = v1 p v in
      let r0 = vadd p (part (mc 0) vl) (part (mc 1) vh) in
      let r1 = vadd p (part (mc 2) vl) (part (mc 3) vh) in
      let r = make_vnode p (Node_store.level p.ma m) r0 r1 in
      Dd_cache.Two.store p.mv_cache ~epoch:p.epoch m v r;
      r
    end

let mv p (me : medge) (ve : vedge) : vedge =
  if me = 0 || ve = 0 then vzero
  else begin
    fit_caches p;
    let r = mv_nodes p (edge_tgt me) (edge_tgt ve) in
    vscale p r (Cnum.mul (mw p me) (vw p ve))
  end

let rec mm_nodes p (a : mnode) (b : mnode) : medge =
  if a = 0 then begin
    assert (b = 0);
    mone
  end
  else
    let r = Dd_cache.Two.find p.mm_cache ~epoch:p.epoch a b in
    if r >= 0 then r
    else begin
      assert (Node_store.level p.ma a = Node_store.level p.ma b);
      let part (ae : medge) (be : medge) =
        if ae = 0 || be = 0 then mzero
        else
          let sub = mm_nodes p (edge_tgt ae) (edge_tgt be) in
          mscale p sub (Cnum.mul (mw p ae) (mw p be))
      in
      let ac i = Node_store.child4 p.ma a i
      and bc i = Node_store.child4 p.ma b i in
      (* (A·B)_ij = Σ_k A_ik B_kj over the 2×2 block structure. *)
      let r00 = madd p (part (ac 0) (bc 0)) (part (ac 1) (bc 2)) in
      let r01 = madd p (part (ac 0) (bc 1)) (part (ac 1) (bc 3)) in
      let r10 = madd p (part (ac 2) (bc 0)) (part (ac 3) (bc 2)) in
      let r11 = madd p (part (ac 2) (bc 1)) (part (ac 3) (bc 3)) in
      let r = make_mnode p (Node_store.level p.ma a) r00 r01 r10 r11 in
      Dd_cache.Two.store p.mm_cache ~epoch:p.epoch a b r;
      r
    end

let mm p (ae : medge) (be : medge) : medge =
  if ae = 0 || be = 0 then mzero
  else begin
    fit_caches p;
    let r = mm_nodes p (edge_tgt ae) (edge_tgt be) in
    mscale p r (Cnum.mul (mw p ae) (mw p be))
  end

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let rec mark_v p acc (n : vnode) =
  if n <> 0 && not (Node_store.marked p.va n) then begin
    Node_store.set_mark p.va n;
    incr acc;
    let c0 = v0 p n and c1 = v1 p n in
    if c0 <> 0 then mark_v p acc (edge_tgt c0);
    if c1 <> 0 then mark_v p acc (edge_tgt c1)
  end

let vnode_count p (e : vedge) =
  if e = 0 then 0
  else begin
    let acc = ref 0 in
    Node_store.begin_mark p.va;
    mark_v p acc (edge_tgt e);
    !acc
  end

let rec mark_m p acc (n : mnode) =
  if n <> 0 && not (Node_store.marked p.ma n) then begin
    Node_store.set_mark p.ma n;
    incr acc;
    for k = 0 to 3 do
      let c = Node_store.child4 p.ma n k in
      if c <> 0 then mark_m p acc (edge_tgt c)
    done
  end

let mnode_count p (e : medge) =
  if e = 0 then 0
  else begin
    let acc = ref 0 in
    Node_store.begin_mark p.ma;
    mark_m p acc (edge_tgt e);
    !acc
  end

(* The three path counts of [priced_paths]. A slot is counted once per
   walk: its four children first, then either its stripe, when it is
   (e, 0, 0, e) with [e] the unit edge to the identity one level down
   ([mone] at level 0), or the sums of its non-zero children's counts,
   plus its own visit at level 1 and up. Counts go straight into the
   unboxed scratch arrays, so the walk allocates nothing. *)
let[@inline] edge_count (count : float array) e =
  if e = 0 then 0.0 else Array.unsafe_get count (edge_tgt e) (* qcs-lint: allow unsafe-array *)

let[@inline] sum4 count e00 e01 e10 e11 =
  edge_count count e00 +. edge_count count e01 +. edge_count count e10 +. edge_count count e11

let rec count_paths p (tag : int array) stamp n =
  if Array.unsafe_get tag n land lnot 1 <> stamp then begin (* qcs-lint: allow unsafe-array *)
    let e00 = Node_store.child4 p.ma n 0 and e01 = Node_store.child4 p.ma n 1 in
    let e10 = Node_store.child4 p.ma n 2 and e11 = Node_store.child4 p.ma n 3 in
    if e00 <> 0 then count_paths p tag stamp (edge_tgt e00);
    if e01 <> 0 then count_paths p tag stamp (edge_tgt e01);
    if e10 <> 0 then count_paths p tag stamp (edge_tgt e10);
    if e11 <> 0 then count_paths p tag stamp (edge_tgt e11);
    let level = Node_store.level p.ma n in
    let below = edge_tgt e00 in
    if
      e01 = 0 && e10 = 0 && e00 = e11
      && edge_wid e00 = Ctable.one_id
      && (if level = 0 then below = 0 else tag.(below) = stamp + 1)
    then begin
      p.walk_terminal.(n) <- 0.0;
      p.walk_stripe.(n) <- Float.ldexp 1.0 (level + 1);
      p.walk_visits.(n) <- 0.0;
      tag.(n) <- stamp + 1
    end
    else begin
      p.walk_terminal.(n) <- sum4 p.walk_terminal e00 e01 e10 e11;
      p.walk_stripe.(n) <- sum4 p.walk_stripe e00 e01 e10 e11;
      p.walk_visits.(n) <- sum4 p.walk_visits e00 e01 e10 e11 +. (if level > 0 then 1.0 else 0.0);
      tag.(n) <- stamp
    end
  end

(* Refits the walk scratch to the matrix arena's capacity. *)
let fit_walk p cap =
  if Array.length p.walk_tag < cap then begin
    p.walk_tag <- Array.make cap 0;
    p.walk_terminal <- Array.make cap 0.0;
    p.walk_stripe <- Array.make cap 0.0;
    p.walk_visits <- Array.make cap 0.0
  end

type paths = { terminal : float; stripe : float; visits : float }

let no_paths = { terminal = 0.0; stripe = 0.0; visits = 0.0 }

let priced_paths p (e : medge) =
  if e = 0 then no_paths
  else begin
    fit_walk p (Node_store.capacity p.ma);
    p.walk_stamp <- p.walk_stamp + 2;
    let stamp = p.walk_stamp in
    p.walk_tag.(0) <- stamp;
    p.walk_terminal.(0) <- 1.0;
    p.walk_stripe.(0) <- 0.0;
    p.walk_visits.(0) <- 0.0;
    let n = edge_tgt e in
    count_paths p p.walk_tag stamp n;
    { terminal = p.walk_terminal.(n); stripe = p.walk_stripe.(n); visits = p.walk_visits.(n) }
  end

(* Both walks fold the path weight as two bare floats read straight off
   the ctable planes; the inline multiply matches [Cnum.mul] term for
   term, so the result is bit-identical to the boxed fold and only the
   final returned record allocates. *)
let vamplitude p (e : vedge) i =
  let rec go (e : vedge) accre accim =
    if e = 0 then Cnum.zero
    else begin
      let wid = edge_wid e in
      let wre = Ctable.re_of_id p.ct wid and wim = Ctable.im_of_id p.ct wid in
      let accre' = (accre *. wre) -. (accim *. wim) in
      let accim' = (accre *. wim) +. (accim *. wre) in
      let n = edge_tgt e in
      if n = 0 then { Cnum.re = accre'; im = accim' }
      else
        go
          (Node_store.child2 p.va n (Bits.bit i (Node_store.level p.va n)))
          accre' accim'
    end
  in
  go e 1.0 0.0

let mentry p (e : medge) row col =
  let rec go (e : medge) accre accim =
    if e = 0 then Cnum.zero
    else begin
      let wid = edge_wid e in
      let wre = Ctable.re_of_id p.ct wid and wim = Ctable.im_of_id p.ct wid in
      let accre' = (accre *. wre) -. (accim *. wim) in
      let accim' = (accre *. wim) +. (accim *. wre) in
      let n = edge_tgt e in
      if n = 0 then { Cnum.re = accre'; im = accim' }
      else
        let lvl = Node_store.level p.ma n in
        let i = Bits.bit row lvl and j = Bits.bit col lvl in
        go (Node_store.child4 p.ma n ((2 * i) + j)) accre' accim'
    end
  in
  go e 1.0 0.0

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let compact p ~vroots ~mroots =
  let acc = ref 0 in
  Node_store.begin_mark p.va;
  Node_store.begin_mark p.ma;
  List.iter (fun (e : vedge) -> if e <> 0 then mark_v p acc (edge_tgt e)) vroots;
  List.iter (fun (e : medge) -> if e <> 0 then mark_m p acc (edge_tgt e)) mroots;
  (* Sweep pushes every unmarked slot onto the arena free list (the next
     allocation reuses it). *)
  let v_dropped = Node_store.sweep p.va in
  let m_dropped = Node_store.sweep p.ma in
  (* Entering a new epoch invalidates every compute-cache entry stored so
     far: a recycled index can never alias a pre-GC result. *)
  p.epoch <- p.epoch + 1;
  if Obs.enabled () then begin
    Obs.incr c_gc_runs;
    Obs.add c_gc_vnodes_dropped v_dropped;
    Obs.add c_gc_mnodes_dropped m_dropped;
    Obs.set_gauge g_live_vnodes (Node_store.live p.va);
    Obs.set_gauge g_live_mnodes (Node_store.live p.ma);
    Obs.set_gauge g_varena_free (Node_store.free_slots p.va);
    Obs.set_gauge g_marena_free (Node_store.free_slots p.ma)
  end

let live_vnodes p = Node_store.live p.va
let live_mnodes p = Node_store.live p.ma
let vfree_slots p = Node_store.free_slots p.va
let mfree_slots p = Node_store.free_slots p.ma
let varena_capacity p = Node_store.capacity p.va
let marena_capacity p = Node_store.capacity p.ma

(* Exact accounting: every byte below comes from an actual array capacity
   (arenas, ctable dense maps, cache slabs) — no per-node estimates. *)
let memory_bytes p =
  Node_store.memory_bytes p.va
  + Node_store.memory_bytes p.ma
  + Ctable.memory_bytes p.ct
  + Dd_cache.Two.memory_bytes p.mv_cache
  + Dd_cache.Two.memory_bytes p.mm_cache
  + Dd_cache.Three.memory_bytes p.vadd_cache
  + Dd_cache.Three.memory_bytes p.madd_cache
  + (8 * (Array.length p.walk_tag + 1))
  + (8 * (Array.length p.walk_terminal + 1))
  + (8 * (Array.length p.walk_stripe + 1))
  + (8 * (Array.length p.walk_visits + 1))
  + (8 * (Array.length p.walk_slot + 1))
  + (8 * (Array.length p.wid_tag + 1))
  + (8 * (Array.length p.wid_slot + 1))

(* Push the current arena occupancy into the metrics gauges; the simulator
   calls this at phase boundaries so DD-only runs also report them. *)
let observe_gauges p =
  Obs.set_gauge g_live_vnodes (live_vnodes p);
  Obs.set_gauge g_live_mnodes (live_mnodes p);
  Obs.set_gauge g_varena_capacity (varena_capacity p);
  Obs.set_gauge g_marena_capacity (marena_capacity p);
  Obs.set_gauge g_varena_free (vfree_slots p);
  Obs.set_gauge g_marena_free (mfree_slots p)

let stats p =
  Printf.sprintf
    "vnodes=%d/%d mnodes=%d/%d vfree=%d mfree=%d cvalues=%d slots=%d mv=%d/%d \
     mm=%d/%d vadd=%d/%d madd=%d/%d mem=%dKB"
    (live_vnodes p) (varena_capacity p) (live_mnodes p) (marena_capacity p)
    (vfree_slots p) (mfree_slots p)
    (Ctable.count p.ct) (cache_slots p)
    p.mv_cache.Dd_cache.Two.hits p.mv_cache.Dd_cache.Two.misses
    p.mm_cache.Dd_cache.Two.hits p.mm_cache.Dd_cache.Two.misses
    p.vadd_cache.Dd_cache.Three.hits p.vadd_cache.Dd_cache.Three.misses
    p.madd_cache.Dd_cache.Three.hits p.madd_cache.Dd_cache.Three.misses
    (memory_bytes p / 1024)

(* ------------------------------------------------------------------ *)
(* Raw kernel views                                                    *)
(* ------------------------------------------------------------------ *)

type view = Storage.arena = {
  lv : int array;    (* slot -> level (-1 terminal, -2 free) *)
  ch : int array;    (* packed child edges, arena width per slot *)
  re : float array;  (* weight id -> real part *)
  im : float array;  (* weight id -> imaginary part *)
  ident : int array; (* level -> slot of the identity node, matrix views *)
}

let vview p =
  { lv = Node_store.level_array p.va;
    ch = Node_store.child_array p.va;
    re = Ctable.re_array p.ct;
    im = Ctable.im_array p.ct;
    ident = [||] }

(* ------------------------------------------------------------------ *)
(* Gate-local export                                                   *)
(* ------------------------------------------------------------------ *)

type export = { arena : view; local : mnode -> int }

(* The nodes reachable from the entry nodes in post-order, so slot 0 is
   the terminal and every child has a lower slot than its parents; weight
   id 0 stays the zero weight and the others are numbered as first met.
   A node is the canonical identity exactly when [priced_paths] would
   stop at it: (e, 0, 0, e) with [e] the unit edge to the identity one
   level down (to the terminal at level 0); unique tables make that the
   slot [Testing.mview]'s probe finds. Run never walks below one, so the
   walk does not either: an identity's child edges keep their weights
   and point at the terminal. *)
(* The slots of the canonical identity nodes, level 0 upwards, as far as
   the arena holds them: level 0 is (mone, 0, 0, mone), level l is
   (e, 0, 0, e) with e the unit edge to level l-1's identity. Probed
   fresh on every call, lookup only: [compact] and slot reuse reissue
   indices, and interning here could grow the arena under a view the
   caller is about to hold. *)
let identity_slots p =
  let rec go l below acc =
    let n = Node_store.find4 p.ma ~level:l below mzero mzero below in
    if n < 0 then Array.of_list (List.rev acc) else go (l + 1) (munit n) (n :: acc)
  in
  go 0 mone []

let export p (entries : mnode list) =
  let child n k = Node_store.child4 p.ma n k in
  let ids = identity_slots p in
  let identity n =
    n <> 0
    &&
    let l = Node_store.level p.ma n in
    l < Array.length ids && ids.(l) = n
  in
  let cap = Node_store.capacity p.ma and wids = Ctable.count p.ct in
  fit_walk p cap;
  if Array.length p.walk_slot < cap then p.walk_slot <- Array.make cap 0;
  if Array.length p.wid_tag < wids then begin
    p.wid_tag <- Array.make wids 0;
    p.wid_slot <- Array.make wids 0
  end;
  p.walk_stamp <- p.walk_stamp + 2;
  let stamp = p.walk_stamp in
  let tag = p.walk_tag and slot = p.walk_slot and wtag = p.wid_tag and wslot = p.wid_slot in
  tag.(0) <- stamp;
  slot.(0) <- 0;
  wtag.(0) <- stamp;
  wslot.(0) <- 0;
  let nodes = ref [ 0 ] and weights = ref [ 0 ] and node_count = ref 1 and weight_count = ref 1 in
  (* Post-order: children first, each node numbered after them; weights
     numbered as first met. *)
  let rec visit n =
    if tag.(n) <> stamp then begin
      let stop = identity n in
      for k = 0 to 3 do
        let c = child n k in
        if c <> 0 then begin
          if not stop then visit (edge_tgt c);
          let w = edge_wid c in
          if wtag.(w) <> stamp then begin
            wtag.(w) <- stamp;
            wslot.(w) <- !weight_count;
            incr weight_count;
            weights := w :: !weights
          end
        end
      done;
      tag.(n) <- stamp;
      slot.(n) <- !node_count;
      incr node_count;
      nodes := n :: !nodes
    end
  in
  List.iter visit entries;
  let nodes = Array.of_list (List.rev !nodes) and weights = Array.of_list (List.rev !weights) in
  let size = Array.length nodes in
  let lv = Array.make size (-1) and ch = Array.make (4 * size) 0 in
  let top = ref (-1) in
  for i = 1 to size - 1 do
    let n = nodes.(i) in
    lv.(i) <- Node_store.level p.ma n;
    let stop = identity n in
    if stop then top := Int.max !top lv.(i);
    for k = 0 to 3 do
      let c = child n k in
      if c <> 0 then
        ch.((4 * i) + k) <- pack (if stop then 0 else slot.(edge_tgt c)) wslot.(edge_wid c)
    done
  done;
  let ident = Array.make (!top + 1) (-1) in
  Array.iteri (fun i n -> if i > 0 && identity n then ident.(lv.(i)) <- i) nodes;
  let arena =
    { lv;
      ch;
      re = Array.map (Ctable.re_of_id p.ct) weights;
      im = Array.map (Ctable.im_of_id p.ct) weights;
      ident }
  in
  (* The entries' slots, read now: the scratch belongs to the next walk. *)
  let local = List.map (fun n -> (n, slot.(n))) entries in
  { arena; local = (fun n -> List.assoc n local) }

(* ------------------------------------------------------------------ *)
(* Test-only surface                                                   *)
(* ------------------------------------------------------------------ *)

(* The arena conservation property needs the high-water marks, but the
   node-alloc-outside-arena lint rule (rightly) bans Node_store references
   outside lib/dd, so they are re-exported here; the kernel oracle's
   reference Run walks the whole matrix arena. Nothing in the production
   tree calls this module. *)
module Testing = struct
  let varena_high_water p = Node_store.high_water p.va
  let marena_high_water p = Node_store.high_water p.ma

  let mview p =
    { lv = Node_store.level_array p.ma;
      ch = Node_store.child_array p.ma;
      re = Ctable.re_array p.ct;
      im = Ctable.im_array p.ct;
      ident = identity_slots p }
end
