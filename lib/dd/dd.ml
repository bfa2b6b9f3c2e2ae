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
     its level), [walk_val.(n)] its count. Stamps step by 2, so a new
     walk retires every older entry without clearing. *)
  mutable walk_tag : int array;
  mutable walk_val : float array;
  mutable walk_stamp : int;
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
let c_order_swaps = Obs.counter "order.swaps"
let c_sift_passes = Obs.counter "order.sift.passes"
let c_sift_accepted = Obs.counter "order.sift.accepted"
let g_sift_nodes_before = Obs.gauge "order.sift.nodes.before"
let g_sift_nodes_after = Obs.gauge "order.sift.nodes.after"
let s_sift = Obs.span "order.sift"
let g_cache_slots = Obs.gauge "dd.cache.slots"

(* The four compute caches share one capacity, 2^cache_bits_min slots in a
   fresh package. [fit_caches] grows them in 4x steps while the live nodes
   outnumber the slots, up to 2^cache_bits_max; [reset] takes them back to
   the floor. With 4x steps a package grows at most three times between
   resets, leaving few dropped slabs for the GC. *)
let cache_bits_min = 10
let cache_bits_max = 16

let create ?tolerance () =
  Obs.max_gauge g_cache_slots (1 lsl cache_bits_min);
  { ct = Ctable.create ?tolerance ();
    va = Node_store.create ~width:2 ~capacity:(1 lsl 12);
    ma = Node_store.create ~width:4 ~capacity:(1 lsl 10);
    epoch = 0;
    mv_cache = Dd_cache.Two.create ~bits:cache_bits_min ~label:"mv";
    mm_cache = Dd_cache.Two.create ~bits:cache_bits_min ~label:"mm";
    vadd_cache = Dd_cache.Three.create ~bits:cache_bits_min ~label:"vadd";
    madd_cache = Dd_cache.Three.create ~bits:cache_bits_min ~label:"madd";
    walk_tag = [||];
    walk_val = [||];
    walk_stamp = 0 }

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

(* The normalization invariant: the pick starts from zero weight; at least
   one edge is non-zero so [norm] is non-zero. *)
let make_mnode p level (e00 : medge) (e01 : medge) (e10 : medge) (e11 : medge) :
    medge =
  assert (level >= 0);
  if e00 = 0 && e01 = 0 && e10 = 0 && e11 = 0 then mzero
  else begin
    (* Largest-magnitude weight wins; ties favor the earlier edge in
       row-major order (the fold starts from the zero weight). *)
    let normid = ref 0 and normn = ref 0.0 in
    let pick (e : medge) =
      let wid = edge_wid e in
      let n = Cnum.norm2 (value p wid) in
      if n > !normn then begin
        normid := wid;
        normn := n
      end
    in
    pick e00; pick e01; pick e10; pick e11;
    let norm = value p !normid in
    (* An edge carrying the norm's own weight divides to exactly one
       (w/w is 1 + 0i in [Cnum.div]), which interns to [one_id]. *)
    let div (e : medge) : medge =
      if e = 0 then mzero
      else if edge_wid e = !normid then pack (edge_tgt e) Ctable.one_id
      else
        let w = Ctable.id p.ct (Cnum.div (value p (edge_wid e)) norm) in
        if w = 0 then mzero else pack (edge_tgt e) w
    in
    let d00 = div e00 and d01 = div e01 and d10 = div e10 and d11 = div e11 in
    let live = Node_store.live p.ma in
    let node = Node_store.intern4 p.ma ~level d00 d01 d10 d11 in
    if Node_store.live p.ma > live then begin
      if Obs.enabled () then begin
        Obs.incr c_mnodes_created;
        Obs.max_gauge g_peak_mnodes (Node_store.live p.ma)
      end
    end
    else Obs.incr c_mnodes_reused;
    pack node !normid
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

(* The priced path count of [priced_paths]. A slot is counted once per
   walk: its four children first, then either its identity price, when
   it is (e, 0, 0, e) with [e] the unit edge to the identity one level
   down ([mone] at level 0), or the sum of its non-zero children's
   counts. Counts go straight into the unboxed [walk_val], so the walk
   allocates nothing. *)
let[@inline] edge_count (value : float array) e =
  if e = 0 then 0.0 else Array.unsafe_get value (edge_tgt e) (* qcs-lint: allow unsafe-array *)

let rec count_paths p (tag : int array) (value : float array) stamp identity n =
  if Array.unsafe_get tag n land lnot 1 <> stamp then begin (* qcs-lint: allow unsafe-array *)
    let e00 = Node_store.child4 p.ma n 0 and e01 = Node_store.child4 p.ma n 1 in
    let e10 = Node_store.child4 p.ma n 2 and e11 = Node_store.child4 p.ma n 3 in
    if e00 <> 0 then count_paths p tag value stamp identity (edge_tgt e00);
    if e01 <> 0 then count_paths p tag value stamp identity (edge_tgt e01);
    if e10 <> 0 then count_paths p tag value stamp identity (edge_tgt e10);
    if e11 <> 0 then count_paths p tag value stamp identity (edge_tgt e11);
    let level = Node_store.level p.ma n in
    let below = edge_tgt e00 in
    if
      e01 = 0 && e10 = 0 && e00 = e11
      && edge_wid e00 = Ctable.one_id
      && (if level = 0 then below = 0 else tag.(below) = stamp + 1)
    then begin
      value.(n) <- Float.ldexp identity (level + 1);
      tag.(n) <- stamp + 1
    end
    else begin
      value.(n) <-
        edge_count value e00 +. edge_count value e01 +. edge_count value e10
        +. edge_count value e11;
      tag.(n) <- stamp
    end
  end

let priced_paths p ~terminal ~identity (e : medge) =
  if e = 0 then 0.0
  else begin
    let cap = Node_store.capacity p.ma in
    if Array.length p.walk_tag < cap then begin
      p.walk_tag <- Array.make cap 0;
      p.walk_val <- Array.make cap 0.0
    end;
    p.walk_stamp <- p.walk_stamp + 2;
    let stamp = p.walk_stamp in
    p.walk_tag.(0) <- stamp;
    p.walk_val.(0) <- terminal;
    count_paths p p.walk_tag p.walk_val stamp identity (edge_tgt e);
    p.walk_val.(edge_tgt e)
  end

(* ------------------------------------------------------------------ *)
(* Qubit-order transformations (ISSUE 8)                               *)
(* ------------------------------------------------------------------ *)

(* Exchange adjacent levels [upper] and [upper-1] of the vector arena,
   in place. Relies on the no-skipped-levels invariant: every non-zero
   child of a level-[upper] node targets a level-[upper-1] node, and
   every reference to a level-[upper-1] node comes from level [upper] —
   so rewriting the level-[upper] slots is the complete transformation.

   For a level-[upper] node A with children e_a (a in {0,1}) and
   grandchildren s_ab (= child b of A's branch a), the swapped function
   F'(x_u=b, x_{u-1}=a, rest) = F(x_u=a, x_{u-1}=b, rest) means A's new
   branch for x_u=b is the normalized node over
   (w(e_0)*s_0b, w(e_1)*s_1b). The new children are interned through
   [make_vnode] (canonical, shared), but A itself is rewritten in
   place *without* renormalizing, so the root edge stays valid and no
   parent rethreading is needed. Cost: canonicity/sharing at level
   [upper] is best-effort until those slots next flow through
   [make_vnode] — semantics are exact either way, and duplicate or
   garbage slots fall out at the next [compact].

   The unique tables are rebuilt wholesale afterwards (the rewritten
   slots hash differently) and the epoch is bumped so every compute
   cache drops entries that mixed the old order. Call it between
   gates. *)
let swap_levels p ~upper =
  if upper < 1 then invalid_arg "Dd.swap_levels: upper must be >= 1";
  let hw = Node_store.high_water p.va in
  for a = 1 to hw do
    if Node_store.level p.va a = upper then begin
      let e0 = v0 p a and e1 = v1 p a in
      (* Branch a's sub-edge for the new upper variable value [beta],
         scaled by the branch weight; zero edges propagate. *)
      let sub (e : vedge) beta : vedge =
        if e = 0 then vzero
        else begin
          let s = Node_store.child2 p.va (edge_tgt e) beta in
          if s = 0 then vzero else vscale p s (vw p e)
        end
      in
      let n0 = make_vnode p (upper - 1) (sub e0 0) (sub e1 0) in
      let n1 = make_vnode p (upper - 1) (sub e0 1) (sub e1 1) in
      Node_store.set_child2 p.va a 0 n0;
      Node_store.set_child2 p.va a 1 n1
    end
  done;
  Node_store.rebuild_shards p.va;
  p.epoch <- p.epoch + 1;
  Obs.incr c_order_swaps

(* Bounded greedy sifting: sweep adjacent transpositions from the top
   level down, keep a swap only if the DD over [root] strictly shrinks
   (measured by [vnode_count]), revert otherwise; repeat up to
   [max_rounds] sweeps or until a sweep accepts nothing. Reverting
   restores the function exactly but may leave slight sharing loss, so
   [best] only ratchets down — a swap is never accepted on noise.

   Returns [(perm, before, after)]: [perm.(l)] is the new level of the
   content that sat at level [l] when the pass started, plus the node
   counts bracketing the pass. The root edge is unchanged (swaps rewrite
   slots in place). *)
let sift_pass ?(max_rounds = 2) p ~root ~levels =
  Obs.with_span s_sift (fun () ->
      Obs.incr c_sift_passes;
      let perm = Array.init levels (fun l -> l) in
      let before = vnode_count p root in
      let best = ref before in
      let rounds = ref 0 and made_progress = ref true in
      while !made_progress && !rounds < max_rounds do
        incr rounds;
        made_progress := false;
        for u = levels - 1 downto 1 do
          swap_levels p ~upper:u;
          let sz = vnode_count p root in
          if sz < !best then begin
            best := sz;
            made_progress := true;
            Obs.incr c_sift_accepted;
            for l = 0 to levels - 1 do
              if perm.(l) = u then perm.(l) <- u - 1
              else if perm.(l) = u - 1 then perm.(l) <- u
            done
          end
          else swap_levels p ~upper:u
        done
      done;
      let after = vnode_count p root in
      Obs.set_gauge g_sift_nodes_before before;
      Obs.set_gauge g_sift_nodes_after after;
      (perm, before, after))

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

(* Full reset for warm reuse: semantically a fresh package, physically the
   same arenas/tables at their grown capacities. Every edge handed out
   before the reset is dead (all non-terminal slots are swept and the
   ctable ids are reissued), so callers must drop their roots first. The
   epoch bump from [compact] already invalidates every compute-cache
   entry; the ctable clear reissues ids from the seeded constants, so a
   warm run canonicalizes weights exactly like a cold one — byte-identical
   amplitudes, no tolerance drift from a previous job's residents. The
   compute caches, unlike the arenas, go back to a fresh package's size:
   an idle warm handle should not hold a large job's cache slabs. *)
let reset p =
  compact p ~vroots:[] ~mroots:[];
  Ctable.clear p.ct;
  if cache_slots p > 1 lsl cache_bits_min then resize_caches p ~bits:cache_bits_min

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
  + (8 * (Array.length p.walk_val + 1))

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

(* The slots of the canonical identity nodes, level 0 upwards, as far as
   the arena holds them: level 0 is (mone, 0, 0, mone), level l is
   (e, 0, 0, e) with e the unit edge to level l-1's identity. Probed
   fresh on every view, lookup only: [compact], [reset] and slot reuse
   reissue indices, and interning here could grow the arena under a view
   the caller is about to hold. *)
let identity_slots p =
  let rec go l below acc =
    let n = Node_store.find4 p.ma ~level:l below mzero mzero below in
    if n < 0 then Array.of_list (List.rev acc) else go (l + 1) (munit n) (n :: acc)
  in
  go 0 mone []

let mview p =
  { lv = Node_store.level_array p.ma;
    ch = Node_store.child_array p.ma;
    re = Ctable.re_array p.ct;
    im = Ctable.im_array p.ct;
    ident = identity_slots p }

(* ------------------------------------------------------------------ *)
(* Test-only surface                                                   *)
(* ------------------------------------------------------------------ *)

(* The arena conservation property needs the high-water marks, but the
   node-alloc-outside-arena lint rule (rightly) bans Node_store references
   outside lib/dd, so they are re-exported here. Nothing in the
   production tree calls this module. *)
module Testing = struct
  let varena_high_water p = Node_store.high_water p.va
  let marena_high_water p = Node_store.high_water p.ma
end
