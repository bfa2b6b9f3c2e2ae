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

   Parallel mode (ISSUE 6): [enable_parallel] puts the package in a
   multi-domain regime — the arenas' unique tables become stripe-locked,
   node allocation routes through per-domain segments of the shared arena,
   the ctable interns under a mutex, and every domain gets private compute
   caches plus an exact-bits weight-intern cache that keeps most weight
   lookups off the ctable mutex. [mv_par] then applies a gate with
   node-level task splitting: a sequential descent collects the distinct
   (matrix node, vector node) pairs at a depth cutoff, the pool's domains
   drain those pairs through an atomic cursor (each recursing with its own
   caches into the shared arena), and the results seed the sequential
   combine over the top of the DD. Determinism: every value is computed by
   the same canonical-weight arithmetic regardless of which domain runs it,
   and exact-bit-equal inputs intern to the same ctable id, so amplitudes
   are byte-identical to the sequential engine — the differential battery
   in test_dd_par.ml holds this at 1 vs 2/4/8 domains. Reclamation stays
   stop-the-world: [compact] and arena growth only run quiesced (growth
   demands mid-flight surface as [Node_store.Need_grow], caught here and
   retried after a quiesced grow — partial work is valid canonical DD
   structure and is reused through the caches). *)

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

(* ------------------------------------------------------------------ *)
(* Per-domain operation state                                          *)
(* ------------------------------------------------------------------ *)

(* Everything one domain needs to run the recursive ops without touching
   another domain's mutable state: the four compute caches, plus an
   exact-bits weight-intern cache (bits-of-float keyed, direct-mapped)
   that answers repeat weight interns without the ctable mutex. A hit
   requires bit-exact equality, so it returns precisely the id the ctable
   handed out for those bits — the cache can change timing, never values.
   The sequential path ([seq] below) carries empty weight arrays and goes
   straight to the ctable, preserving the pre-parallel behavior to the
   instruction. *)

let wbits = 17
let wslots = 1 lsl wbits

type dom_caches = {
  dom : int;
  mv_c : vedge Dd_cache.Two.t;
  mm_c : medge Dd_cache.Two.t;
  vadd_c : vedge Dd_cache.Three.t;
  madd_c : medge Dd_cache.Three.t;
  w_re : int64 array;  (* Int64.bits_of_float of the cached value's re *)
  w_im : int64 array;
  w_id : int array;    (* interned id; -1 = empty slot *)
}

type par = {
  ndom : int;
  (* dstates.(0) shares the package's own cache instances, so single-domain
     parallel runs and the combine phase keep warming the same caches the
     sequential engine uses. *)
  dstates : dom_caches array;
}

(* Quiesce-point snapshot of the occupancy numbers [stats]/gauges report.
   While parallel mode is on, live reads of arena occupancy could tear
   against an in-flight gate; the snapshot is refreshed only when the
   domains are joined, so `--metrics-json` always serializes a consistent
   set. *)
type snapshot = {
  mutable s_live_v : int;
  mutable s_live_m : int;
  mutable s_free_v : int;
  mutable s_free_m : int;
  mutable s_cap_v : int;
  mutable s_cap_m : int;
  mutable s_mem : int;
}

type package = {
  ct : Ctable.t;
  va : Node_store.t;                  (* vector arena, width 2 *)
  ma : Node_store.t;                  (* matrix arena, width 4 *)
  mutable epoch : int;                (* bumped by [compact] *)
  (* Compute caches keyed on node indices (operands' weights are factored
     out before lookup, see the ops below). *)
  mv_cache : vedge Dd_cache.Two.t;
  mm_cache : medge Dd_cache.Two.t;
  vadd_cache : vedge Dd_cache.Three.t;
  madd_cache : medge Dd_cache.Three.t;
  seq : dom_caches;                   (* domain-0 view of the caches above *)
  snap : snapshot;
  mutable par : par option;
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
let c_par_applies = Obs.counter "dd.par.applies"
let c_par_tasks = Obs.counter "dd.par.tasks"
let c_par_fallbacks = Obs.counter "dd.par.fallbacks"
let c_par_retries = Obs.counter "dd.par.retries"
let c_order_swaps = Obs.counter "order.swaps"
let c_sift_passes = Obs.counter "order.sift.passes"
let c_sift_accepted = Obs.counter "order.sift.accepted"
let g_sift_nodes_before = Obs.gauge "order.sift.nodes.before"
let g_sift_nodes_after = Obs.gauge "order.sift.nodes.after"
let s_sift = Obs.span "order.sift"
let s_par_quiesce = Obs.span "dd.par.quiesce"
let s_par_collect = Obs.span "dd.par.collect"
let s_par_run = Obs.span "dd.par.run"
let s_par_combine = Obs.span "dd.par.combine"

let create ?tolerance () =
  let mv_cache = Dd_cache.Two.create ~bits:16 ~label:"mv" vzero in
  let mm_cache = Dd_cache.Two.create ~bits:16 ~label:"mm" mzero in
  let vadd_cache = Dd_cache.Three.create ~bits:16 ~label:"vadd" vzero in
  let madd_cache = Dd_cache.Three.create ~bits:16 ~label:"madd" mzero in
  { ct = Ctable.create ?tolerance ();
    va = Node_store.create ~width:2 ~capacity:(1 lsl 12);
    ma = Node_store.create ~width:4 ~capacity:(1 lsl 10);
    epoch = 0;
    mv_cache;
    mm_cache;
    vadd_cache;
    madd_cache;
    seq =
      { dom = 0;
        mv_c = mv_cache;
        mm_c = mm_cache;
        vadd_c = vadd_cache;
        madd_c = madd_cache;
        w_re = [||];
        w_im = [||];
        w_id = [||] };
    snap =
      { s_live_v = 0; s_live_m = 0; s_free_v = 0; s_free_m = 0;
        s_cap_v = 0; s_cap_m = 0; s_mem = 0 };
    par = None }

let ctable p = p.ct
let vweight p w = Ctable.canon p.ct w
let epoch p = p.epoch

let[@inline] value p wid = Ctable.value_of_id p.ct wid

(* Weight interning, per-domain. The sequential dom_caches carries no
   weight cache and this is exactly [Ctable.id]. *)
let[@inline] intern_id p dc (v : Cnum.t) =
  if Array.length dc.w_id = 0 then Ctable.id p.ct v
  else begin
    let bre = Int64.bits_of_float v.Cnum.re in
    let bim = Int64.bits_of_float v.Cnum.im in
    let i =
      (Int64.to_int bre * 0x9E3779B1) lxor (Int64.to_int bim * 0x85EBCA77)
      land (wslots - 1)
    in
    if dc.w_id.(i) >= 0 && Int64.equal dc.w_re.(i) bre && Int64.equal dc.w_im.(i) bim
    then dc.w_id.(i)
    else begin
      let id = Ctable.id p.ct v in
      dc.w_re.(i) <- bre;
      dc.w_im.(i) <- bim;
      dc.w_id.(i) <- id;
      id
    end
  end

(* ------------------------------------------------------------------ *)
(* Edge and node accessors                                             *)
(* ------------------------------------------------------------------ *)

let[@inline] vtgt (e : vedge) : vnode = edge_tgt e
let[@inline] mtgt (e : medge) : mnode = edge_tgt e
let[@inline] vwid (e : vedge) = edge_wid e
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

let[@inline] vunit (n : vnode) : vedge = pack n Ctable.one_id
let[@inline] munit (n : mnode) : medge = pack n Ctable.one_id

(* ------------------------------------------------------------------ *)
(* Normalized node construction                                        *)
(* ------------------------------------------------------------------ *)

let make_vnode_d p dc level (e0 : vedge) (e1 : vedge) : vedge =
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
      else intern_id p dc (Cnum.div wv norm)
    in
    let w0 = divn w0in v0in and w1 = divn w1in v1in in
    let c0 = if w0 = 0 then vzero else pack (edge_tgt e0) w0 in
    let c1 = if w1 = 0 then vzero else pack (edge_tgt e1) w1 in
    let node, created = Node_store.intern2 p.va ~dom:dc.dom ~level c0 c1 in
    if created then begin
      if Obs.enabled () then begin
        Obs.incr c_vnodes_created;
        Obs.max_gauge g_peak_vnodes (Node_store.live p.va)
      end
    end
    else Obs.incr c_vnodes_reused;
    pack node normid
  end

let make_mnode_d p dc level (e00 : medge) (e01 : medge) (e10 : medge)
    (e11 : medge) : medge =
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
    let div (e : medge) : medge =
      if e = 0 then mzero
      else
        let w = intern_id p dc (Cnum.div (value p (edge_wid e)) norm) in
        if w = 0 then mzero else pack (edge_tgt e) w
    in
    let d00 = div e00 and d01 = div e01 and d10 = div e10 and d11 = div e11 in
    let node, created =
      Node_store.intern4 p.ma ~dom:dc.dom ~level d00 d01 d10 d11
    in
    if created then begin
      if Obs.enabled () then begin
        Obs.incr c_mnodes_created;
        Obs.max_gauge g_peak_mnodes (Node_store.live p.ma)
      end
    end
    else Obs.incr c_mnodes_reused;
    pack node !normid
  end

(* Sequential entry points bind the dom-0 cache set: outside a parallel
   regime that is [p.seq] itself; inside one it is the dom-0 shadow that
   adds a weight cache in front of the (now mutex-guarded) ctable, so
   sequential sections between parallel gates don't pay the lock on
   every weight intern. Must only be called from the orchestrating
   domain (never from inside a parallel section). *)
let[@inline] dc0 p =
  match p.par with None -> p.seq | Some ps -> ps.dstates.(0)

let make_vnode p level e0 e1 = make_vnode_d p (dc0 p) level e0 e1
let make_mnode p level e00 e01 e10 e11 = make_mnode_d p (dc0 p) level e00 e01 e10 e11

(* The normalization invariant: in [make_mnode] the pick starts from zero
   weight; at least one edge is non-zero so [norm] is non-zero. *)

let vscale_d p dc (e : vedge) (w : Cnum.t) : vedge =
  if e = 0 then vzero
  else
    let w' = intern_id p dc (Cnum.mul (value p (edge_wid e)) w) in
    if w' = 0 then vzero else pack (edge_tgt e) w'

let mscale_d p dc (e : medge) (w : Cnum.t) : medge =
  if e = 0 then mzero
  else
    let w' = intern_id p dc (Cnum.mul (value p (edge_wid e)) w) in
    if w' = 0 then mzero else pack (edge_tgt e) w'

let vscale p e w = vscale_d p (dc0 p) e w
let mscale p e w = mscale_d p (dc0 p) e w

(* ------------------------------------------------------------------ *)
(* Addition                                                            *)
(* ------------------------------------------------------------------ *)

(* a + b with a = wa·A, b = wb·B  =  wa · (A + (wb/wa)·B); the cache is
   keyed on (A, B, wb/wa), making hits independent of common factors. *)
let rec vadd_d p dc (a : vedge) (b : vedge) : vedge =
  if a = 0 then b
  else if b = 0 then a
  else if edge_tgt a = 0 then begin
    let wid = intern_id p dc (Cnum.add (vw p a) (vw p b)) in
    if wid = 0 then vzero else pack 0 wid
  end
  else begin
    let at = edge_tgt a and bt = edge_tgt b in
    assert (Node_store.level p.va at = Node_store.level p.va bt);
    let rid = intern_id p dc (Cnum.div (vw p b) (vw p a)) in
    let ratio = value p rid in
    let unit_sum =
      match Dd_cache.Three.find dc.vadd_c ~epoch:p.epoch at bt rid with
      | Some r -> r
      | None ->
        let r0 = vadd_d p dc (v0 p at) (vscale_d p dc (v0 p bt) ratio) in
        let r1 = vadd_d p dc (v1 p at) (vscale_d p dc (v1 p bt) ratio) in
        let r = make_vnode_d p dc (Node_store.level p.va at) r0 r1 in
        Dd_cache.Three.store dc.vadd_c ~epoch:p.epoch at bt rid r;
        r
    in
    vscale_d p dc unit_sum (vw p a)
  end

let rec madd_d p dc (a : medge) (b : medge) : medge =
  if a = 0 then b
  else if b = 0 then a
  else if edge_tgt a = 0 then begin
    let wid = intern_id p dc (Cnum.add (mw p a) (mw p b)) in
    if wid = 0 then mzero else pack 0 wid
  end
  else begin
    let at = edge_tgt a and bt = edge_tgt b in
    assert (Node_store.level p.ma at = Node_store.level p.ma bt);
    let rid = intern_id p dc (Cnum.div (mw p b) (mw p a)) in
    let ratio = value p rid in
    let unit_sum =
      match Dd_cache.Three.find dc.madd_c ~epoch:p.epoch at bt rid with
      | Some r -> r
      | None ->
        let ch i = Node_store.child4 p.ma at i
        and bch i = Node_store.child4 p.ma bt i in
        let r00 = madd_d p dc (ch 0) (mscale_d p dc (bch 0) ratio) in
        let r01 = madd_d p dc (ch 1) (mscale_d p dc (bch 1) ratio) in
        let r10 = madd_d p dc (ch 2) (mscale_d p dc (bch 2) ratio) in
        let r11 = madd_d p dc (ch 3) (mscale_d p dc (bch 3) ratio) in
        let r = make_mnode_d p dc (Node_store.level p.ma at) r00 r01 r10 r11 in
        Dd_cache.Three.store dc.madd_c ~epoch:p.epoch at bt rid r;
        r
    in
    mscale_d p dc unit_sum (mw p a)
  end

let vadd p a b = vadd_d p (dc0 p) a b
let madd p a b = madd_d p (dc0 p) a b

(* ------------------------------------------------------------------ *)
(* Matrix-vector and matrix-matrix products                            *)
(* ------------------------------------------------------------------ *)

(* Weights are factored out: the recursion works on nodes as if their
   incoming weights were 1, and the caller scales the result, so the cache
   is keyed on the node pair alone. *)
let rec mv_nodes_d p dc (m : mnode) (v : vnode) : vedge =
  if m = 0 then begin
    assert (v = 0);
    vone
  end
  else
    match Dd_cache.Two.find dc.mv_c ~epoch:p.epoch m v with
    | Some r -> r
    | None ->
      assert (Node_store.level p.ma m = Node_store.level p.va v);
      let part (me : medge) (ve : vedge) =
        if me = 0 || ve = 0 then vzero
        else
          let sub = mv_nodes_d p dc (edge_tgt me) (edge_tgt ve) in
          vscale_d p dc sub (Cnum.mul (mw p me) (vw p ve))
      in
      let mc i = Node_store.child4 p.ma m i in
      let vl = v0 p v and vh = v1 p v in
      let r0 = vadd_d p dc (part (mc 0) vl) (part (mc 1) vh) in
      let r1 = vadd_d p dc (part (mc 2) vl) (part (mc 3) vh) in
      let r = make_vnode_d p dc (Node_store.level p.ma m) r0 r1 in
      Dd_cache.Two.store dc.mv_c ~epoch:p.epoch m v r;
      r

let mv p (me : medge) (ve : vedge) : vedge =
  if me = 0 || ve = 0 then vzero
  else
    let r = mv_nodes_d p (dc0 p) (edge_tgt me) (edge_tgt ve) in
    vscale p r (Cnum.mul (mw p me) (vw p ve))

let rec mm_nodes_d p dc (a : mnode) (b : mnode) : medge =
  if a = 0 then begin
    assert (b = 0);
    mone
  end
  else
    match Dd_cache.Two.find dc.mm_c ~epoch:p.epoch a b with
    | Some r -> r
    | None ->
      assert (Node_store.level p.ma a = Node_store.level p.ma b);
      let part (ae : medge) (be : medge) =
        if ae = 0 || be = 0 then mzero
        else
          let sub = mm_nodes_d p dc (edge_tgt ae) (edge_tgt be) in
          mscale_d p dc sub (Cnum.mul (mw p ae) (mw p be))
      in
      let ac i = Node_store.child4 p.ma a i
      and bc i = Node_store.child4 p.ma b i in
      (* (A·B)_ij = Σ_k A_ik B_kj over the 2×2 block structure. *)
      let r00 = madd_d p dc (part (ac 0) (bc 0)) (part (ac 1) (bc 2)) in
      let r01 = madd_d p dc (part (ac 0) (bc 1)) (part (ac 1) (bc 3)) in
      let r10 = madd_d p dc (part (ac 2) (bc 0)) (part (ac 3) (bc 2)) in
      let r11 = madd_d p dc (part (ac 2) (bc 1)) (part (ac 3) (bc 3)) in
      let r = make_mnode_d p dc (Node_store.level p.ma a) r00 r01 r10 r11 in
      Dd_cache.Two.store dc.mm_c ~epoch:p.epoch a b r;
      r

let mm p (ae : medge) (be : medge) : medge =
  if ae = 0 || be = 0 then mzero
  else
    let r = mm_nodes_d p (dc0 p) (edge_tgt ae) (edge_tgt be) in
    mscale p r (Cnum.mul (mw p ae) (mw p be))

(* ------------------------------------------------------------------ *)
(* Parallel gate application                                           *)
(* ------------------------------------------------------------------ *)

(* Tied after [memory_bytes_now] is defined; an Atomic because
   refresh_snapshot runs on pool domains (quiesce) while the knot is a
   plain module-init write. *)
let refresh_snapshot_mem : (package -> int) Atomic.t = Atomic.make (fun _ -> 0)
(* forward ref: memory_bytes is defined below but the quiesce path needs
   it; resolved once at module init. *)

let refresh_snapshot p =
  let s = p.snap in
  s.s_live_v <- Node_store.live p.va;
  s.s_live_m <- Node_store.live p.ma;
  s.s_free_v <- Node_store.free_slots p.va;
  s.s_free_m <- Node_store.free_slots p.ma;
  s.s_cap_v <- Node_store.capacity p.va;
  s.s_cap_m <- Node_store.capacity p.ma;
  s.s_mem <- (Atomic.get refresh_snapshot_mem) p

let parallel_domains p = match p.par with None -> 1 | Some ps -> ps.ndom

let fresh_dom_caches dom =
  { dom;
    mv_c = Dd_cache.Two.create ~bits:14 ~label:"mv" vzero;
    mm_c = Dd_cache.Two.create ~bits:14 ~label:"mm" mzero;
    vadd_c = Dd_cache.Three.create ~bits:14 ~label:"vadd" vzero;
    madd_c = Dd_cache.Three.create ~bits:14 ~label:"madd" mzero;
    w_re = Array.make wslots 0L;
    w_im = Array.make wslots 0L;
    w_id = Array.make wslots (-1) }

let disable_parallel p =
  match p.par with
  | None -> ()
  | Some _ ->
    Node_store.disable_parallel p.va;
    Node_store.disable_parallel p.ma;
    Ctable.set_concurrent p.ct false;
    p.par <- None;
    refresh_snapshot p

let enable_parallel p ~domains =
  if domains < 1 then invalid_arg "Dd.enable_parallel: domains must be >= 1";
  if parallel_domains p <> domains then begin
    disable_parallel p;
    if domains > 1 then begin
      Node_store.enable_parallel p.va ~domains;
      Node_store.enable_parallel p.ma ~domains;
      Ctable.set_concurrent p.ct true;
      let mk dom =
        if dom = 0 then
          (* Domain 0 keeps warming the package's own caches but gains a
             weight cache (the ctable now sits behind a mutex). *)
          { p.seq with
            w_re = Array.make wslots 0L;
            w_im = Array.make wslots 0L;
            w_id = Array.make wslots (-1) }
        else fresh_dom_caches dom
      in
      p.par <- Some { ndom = domains; dstates = Array.init domains mk };
      refresh_snapshot p
    end
  end

(* Refresh the quiesce-point snapshot. Callers must be quiesced (no
   parallel section in flight); the engine invokes this at phase
   boundaries and after the DD phase of a hybrid run. *)
let quiesce p =
  if Obs.enabled () then Obs.with_span s_par_quiesce (fun () -> refresh_snapshot p)
  else refresh_snapshot p

let[@inline] pair_key m v = (m lsl 31) lor v

(* Depth cutoff for node-level task splitting: descend this many levels
   below the root sequentially, then hand the distinct (m, v) frontier
   pairs to the pool. ~4^depth pairs bound the frontier, so a few levels
   beyond log2(ndom) gives the cursor enough tasks to balance. *)
let auto_depth ndom =
  let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
  Int.min 8 (Int.max 2 (lg ndom 0 + 2))

(* Collect the frontier: every distinct non-terminal (m, v) pair exactly
   [depth] levels below the root that the dom-0 cache cannot already
   answer. Sequential, allocation-free. *)
let collect_frontier p ~depth (root_m : mnode) (root_v : vnode) =
  let visited = Hashtbl.create 1024 in
  let idx = Hashtbl.create 256 in
  let pairs = ref [] in
  let n = ref 0 in
  let rec go d (m : mnode) (v : vnode) =
    if m <> 0 then begin
      let k = pair_key m v in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.add visited k ();
        match Dd_cache.Two.find p.mv_cache ~epoch:p.epoch m v with
        | Some _ -> () (* the combine phase will take the cache hit *)
        | None ->
          if d >= depth then begin
            Hashtbl.add idx k !n;
            pairs := (m, v) :: !pairs;
            incr n
          end
          else begin
            let mc i = Node_store.child4 p.ma m i in
            let vl = v0 p v and vh = v1 p v in
            let part me ve =
              if me <> 0 && ve <> 0 then go (d + 1) (edge_tgt me) (edge_tgt ve)
            in
            part (mc 0) vl;
            part (mc 1) vh;
            part (mc 2) vl;
            part (mc 3) vh
          end
      end
    end
  in
  go 0 root_m root_v;
  Array.of_list (List.rev !pairs)

let run_frontier p pool ps (frontier : (mnode * vnode) array) results =
  let cursor = Atomic.make 0 in
  let count = Array.length frontier in
  let claim =
    if Check.enabled () then begin
      let r = Check.region ~name:"dd.par.tasks" in
      fun w i -> Check.claim r ~owner:w ~lo:i ~hi:(i + 1)
    end
    else fun _ _ -> ()
  in
  Node_store.enter_parallel p.va;
  Node_store.enter_parallel p.ma;
  Ctable.enter_section p.ct;
  Fun.protect
    ~finally:(fun () ->
        Ctable.exit_section p.ct;
        Node_store.exit_parallel p.va;
        Node_store.exit_parallel p.ma)
    (fun () ->
       Pool.run pool (fun w ->
           let dc = ps.dstates.(w) in
           let continue = ref true in
           while !continue do
             let i = Atomic.fetch_and_add cursor 1 in
             if i >= count then continue := false
             else begin
               claim w i;
               Obs.incr c_par_tasks;
               let m, v = frontier.(i) in
               results.(i) <- mv_nodes_d p dc m v
             end
           done))

let mv_par p ~pool ?depth (me : medge) (ve : vedge) : vedge =
  match p.par with
  | None -> mv p me ve
  | Some ps ->
    if me = 0 || ve = 0 then vzero
    else begin
      let ndom = ps.ndom in
      let fixed_depth = depth in
      let base_depth =
        match depth with
        | Some d when d > 0 -> d
        | _ -> auto_depth ndom
      in
      let attempts = ref 0 in
      let rec attempt () =
        match
          let root_m = edge_tgt me and root_v = edge_tgt ve in
          let max_depth = Node_store.level p.ma root_m in
          (* Adaptive frontier: at the base cutoff a structured circuit
             often exposes only a handful of uncached pairs (the gate
             touches a narrow cone of the DD). Deepening the cutoff
             splits those heavy pairs into more, smaller tasks until the
             cursor has enough to balance the domains — unless the
             caller pinned the depth explicitly. *)
          let target = 4 * ndom in
          let rec collect_at d =
            let frontier =
              if d <= 0 then [||] else collect_frontier p ~depth:d root_m root_v
            in
            if
              fixed_depth <> None
              || Array.length frontier >= target
              || d >= max_depth
            then frontier
            else collect_at (d + 1)
          in
          let frontier =
            Obs.with_span s_par_collect (fun () ->
                collect_at (Int.min base_depth max_depth))
          in
          if Array.length frontier < 2 then begin
            Obs.incr c_par_fallbacks;
            mv p me ve
          end
          else begin
            Obs.incr c_par_applies;
            let results = Array.make (Array.length frontier) vzero in
            Obs.with_span s_par_run (fun () ->
                run_frontier p pool ps frontier results);
            (* Seed the dom-0 cache so the sequential combine over the top
               of the DD takes the frontier results as cache hits. *)
            Array.iteri
              (fun i (m, v) ->
                 Dd_cache.Two.store p.mv_cache ~epoch:p.epoch m v results.(i))
              frontier;
            Obs.with_span s_par_combine (fun () -> mv p me ve)
          end
        with
        | r -> r
        | exception Node_store.Need_grow ->
          (* All domains are joined (Pool.run re-raises only after the
             join), so growing in place is safe. Partially interned nodes
             are canonical DD structure: the retry reuses them through
             the unique tables and caches, losing no work. Growth doubles
             capacity each round, so the retry count is logarithmic. *)
          incr attempts;
          if !attempts > 20 then
            failwith "Dd.mv_par: arena growth did not converge";
          Obs.incr c_par_retries;
          Node_store.ensure_headroom p.va ~slots:(ndom * 1024);
          Node_store.ensure_headroom p.ma ~slots:(ndom * 1024);
          attempt ()
        | exception Ctable.Need_grow ->
          (* Same protocol for the weight table's dense reverse maps. *)
          incr attempts;
          if !attempts > 20 then
            failwith "Dd.mv_par: ctable growth did not converge";
          Obs.incr c_par_retries;
          Ctable.ensure_headroom p.ct ~slots:(ndom * 4096);
          attempt ()
      in
      let r = attempt () in
      quiesce p;
      r
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

let rec unmark_v p (n : vnode) =
  if n <> 0 && Node_store.marked p.va n then begin
    Node_store.clear_mark p.va n;
    let c0 = v0 p n and c1 = v1 p n in
    if c0 <> 0 then unmark_v p (edge_tgt c0);
    if c1 <> 0 then unmark_v p (edge_tgt c1)
  end

let vnode_count p (e : vedge) =
  if e = 0 then 0
  else begin
    let acc = ref 0 in
    mark_v p acc (edge_tgt e);
    unmark_v p (edge_tgt e);
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

let rec unmark_m p (n : mnode) =
  if n <> 0 && Node_store.marked p.ma n then begin
    Node_store.clear_mark p.ma n;
    for k = 0 to 3 do
      let c = Node_store.child4 p.ma n k in
      if c <> 0 then unmark_m p (edge_tgt c)
    done
  end

let mnode_count p (e : medge) =
  if e = 0 then 0
  else begin
    let acc = ref 0 in
    mark_m p acc (edge_tgt e);
    unmark_m p (edge_tgt e);
    !acc
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
   [make_vnode_d] (canonical, shared), but A itself is rewritten in
   place *without* renormalizing, so the root edge stays valid and no
   parent rethreading is needed. Cost: canonicity/sharing at level
   [upper] is best-effort until those slots next flow through
   [make_vnode] — semantics are exact either way, and duplicate or
   garbage slots fall out at the next [compact].

   The unique tables are rebuilt wholesale afterwards (the rewritten
   slots hash differently) and the epoch is bumped so every compute
   cache drops entries that mixed the old order. Must be called
   quiesced — between gates, never from inside a parallel section. *)
let swap_levels p ~upper =
  if upper < 1 then invalid_arg "Dd.swap_levels: upper must be >= 1";
  if Node_store.in_parallel p.va then
    invalid_arg "Dd.swap_levels: parallel section in flight";
  let dc = dc0 p in
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
          if s = 0 then vzero else vscale_d p dc s (vw p e)
        end
      in
      let n0 = make_vnode_d p dc (upper - 1) (sub e0 0) (sub e1 0) in
      let n1 = make_vnode_d p dc (upper - 1) (sub e0 1) (sub e1 1) in
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

let clear_compute_caches p =
  Dd_cache.Two.clear p.mv_cache;
  Dd_cache.Two.clear p.mm_cache;
  Dd_cache.Three.clear p.vadd_cache;
  Dd_cache.Three.clear p.madd_cache;
  match p.par with
  | None -> ()
  | Some ps ->
    Array.iter
      (fun dc ->
         if dc.dom > 0 then begin
           Dd_cache.Two.clear dc.mv_c;
           Dd_cache.Two.clear dc.mm_c;
           Dd_cache.Three.clear dc.vadd_c;
           Dd_cache.Three.clear dc.madd_c
         end;
         if Array.length dc.w_id > 0 then
           Array.fill dc.w_id 0 (Array.length dc.w_id) (-1))
      ps.dstates

let compact p ~vroots ~mroots =
  let acc = ref 0 in
  List.iter (fun (e : vedge) -> if e <> 0 then mark_v p acc (edge_tgt e)) vroots;
  List.iter (fun (e : medge) -> if e <> 0 then mark_m p acc (edge_tgt e)) mroots;
  (* Sweep pushes every unmarked slot onto the arena free list (the next
     allocation reuses it) and clears all marks. *)
  let v_dropped = Node_store.sweep p.va in
  let m_dropped = Node_store.sweep p.ma in
  (* Entering a new epoch invalidates every compute-cache entry stored so
     far — the per-domain caches included, since they stamp the same
     epoch: a recycled index can never alias a pre-GC result. *)
  p.epoch <- p.epoch + 1;
  refresh_snapshot p;
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
   amplitudes, no tolerance drift from a previous job's residents. *)
let reset p =
  disable_parallel p;
  compact p ~vroots:[] ~mroots:[];
  Ctable.clear p.ct;
  refresh_snapshot p

let live_vnodes p = Node_store.live p.va
let live_mnodes p = Node_store.live p.ma
let vfree_slots p = Node_store.free_slots p.va
let mfree_slots p = Node_store.free_slots p.ma
let varena_capacity p = Node_store.capacity p.va
let marena_capacity p = Node_store.capacity p.ma

(* Exact accounting: every byte below comes from an actual array capacity
   (arenas, ctable dense maps, cache slabs) — no per-node estimates. *)
let memory_bytes_now p =
  let dom_bytes =
    match p.par with
    | None -> 0
    | Some ps ->
      Array.fold_left
        (fun acc dc ->
           let own =
             if dc.dom = 0 then 0
             else
               Dd_cache.Two.memory_bytes dc.mv_c
               + Dd_cache.Two.memory_bytes dc.mm_c
               + Dd_cache.Three.memory_bytes dc.vadd_c
               + Dd_cache.Three.memory_bytes dc.madd_c
           in
           acc + own + (8 * 3 * Array.length dc.w_id))
        0 ps.dstates
  in
  Node_store.memory_bytes p.va
  + Node_store.memory_bytes p.ma
  + Ctable.memory_bytes p.ct
  + Dd_cache.Two.memory_bytes p.mv_cache
  + Dd_cache.Two.memory_bytes p.mm_cache
  + Dd_cache.Three.memory_bytes p.vadd_cache
  + Dd_cache.Three.memory_bytes p.madd_cache
  + dom_bytes

let () = Atomic.set refresh_snapshot_mem memory_bytes_now

(* While parallel mode is on, report the quiesce-point snapshot instead of
   racing the arenas (satellite fix: no torn occupancy in --metrics-json).
   Sequential packages keep the exact live reads. *)
let memory_bytes p =
  match p.par with None -> memory_bytes_now p | Some _ -> p.snap.s_mem

(* Push the current arena occupancy into the metrics gauges; the simulator
   calls this at phase boundaries so DD-only runs also report them. *)
let observe_gauges p =
  match p.par with
  | None ->
    Obs.set_gauge g_live_vnodes (live_vnodes p);
    Obs.set_gauge g_live_mnodes (live_mnodes p);
    Obs.set_gauge g_varena_capacity (varena_capacity p);
    Obs.set_gauge g_marena_capacity (marena_capacity p);
    Obs.set_gauge g_varena_free (vfree_slots p);
    Obs.set_gauge g_marena_free (mfree_slots p)
  | Some _ ->
    let s = p.snap in
    Obs.set_gauge g_live_vnodes s.s_live_v;
    Obs.set_gauge g_live_mnodes s.s_live_m;
    Obs.set_gauge g_varena_capacity s.s_cap_v;
    Obs.set_gauge g_marena_capacity s.s_cap_m;
    Obs.set_gauge g_varena_free s.s_free_v;
    Obs.set_gauge g_marena_free s.s_free_m

let stats p =
  let live_v, cap_v, live_m, cap_m, free_v, free_m =
    match p.par with
    | None ->
      ( live_vnodes p, varena_capacity p, live_mnodes p, marena_capacity p,
        vfree_slots p, mfree_slots p )
    | Some _ ->
      let s = p.snap in
      (s.s_live_v, s.s_cap_v, s.s_live_m, s.s_cap_m, s.s_free_v, s.s_free_m)
  in
  Printf.sprintf
    "vnodes=%d/%d mnodes=%d/%d vfree=%d mfree=%d cvalues=%d mv=%d/%d mm=%d/%d \
     vadd=%d/%d madd=%d/%d mem=%dKB"
    live_v cap_v live_m cap_m free_v free_m
    (Ctable.count p.ct)
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
}

let vview p =
  { lv = Node_store.level_array p.va;
    ch = Node_store.child_array p.va;
    re = Ctable.re_array p.ct;
    im = Ctable.im_array p.ct }

let mview p =
  { lv = Node_store.level_array p.ma;
    ch = Node_store.child_array p.ma;
    re = Ctable.re_array p.ct;
    im = Ctable.im_array p.ct }

(* ------------------------------------------------------------------ *)
(* Test-only surface                                                   *)
(* ------------------------------------------------------------------ *)

(* The race-injection and free-list property tests need to drive the
   arena from several domains directly, but the node-alloc-outside-arena
   lint rule (rightly) bans Node_store references outside lib/dd — so
   the narrow surface they need is re-exported here. Nothing in the
   production tree calls this module. *)
module Testing = struct
  exception Arena_need_grow = Node_store.Need_grow

  let set_race_spins n = Atomic.set Node_store.test_race_spins n
  let set_bypass_stripe_lock b = Atomic.set Node_store.test_bypass_stripe_lock b

  let intern_vnode p ~dom level (e0 : vedge) (e1 : vedge) : vedge =
    let dc =
      match p.par with
      | Some ps -> ps.dstates.(dom)
      | None -> p.seq
    in
    make_vnode_d p dc level e0 e1

  let enter_parallel p =
    Node_store.enter_parallel p.va;
    Node_store.enter_parallel p.ma

  let exit_parallel p =
    Node_store.exit_parallel p.va;
    Node_store.exit_parallel p.ma

  let ensure_headroom p ~slots =
    Node_store.ensure_headroom p.va ~slots;
    Node_store.ensure_headroom p.ma ~slots

  let varena_high_water p = Node_store.high_water p.va
  let marena_high_water p = Node_store.high_water p.ma
end
