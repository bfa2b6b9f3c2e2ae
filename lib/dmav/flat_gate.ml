(* A flat-phase gate compiled once, at planning time, into everything the
   DMAV executor needs: the kernel pick priced at the real pool size,
   the sub-matrices its tasks enter in the gate's own arena
   ([Dd.export]), and Algorithm 1's or 2's task lists turned into flat
   arrays of Run calls over gate-local slots. The gate is assigned once,
   column-major, for its price ([Cost.breakdown]); Algorithm 1 runs the
   transpose of those lists. After
   [compile] returns, running the gate reads nothing of the package, so
   the planner can keep interning and fusing while the gate runs.

   A task whose sub-matrix models more than [piece_macs] MACs is split
   into its children's Run calls, in the recursion's quadrant order,
   with the recursion's weight products. Every W element then gets the
   same MACs in the same order as from the whole task, so the bytes do
   not change; the executor's C calls stay short, which matters because
   a domain inside a [@@noalloc] call holds up every stop-the-world
   minor collection until the call returns. *)

type program = {
  n : int;
  arena : Storage.arena;
  cached : bool;
  threads : int;
  lists : int array;
  tasks : int array;
  ratios : float array;
  pieces : int array;
  weights : float array;
  buffers : int;
  thread_buffer : int array;
  occupied : int array array;
  contributors : int array array;
  hits : int;
}

type local = { support : int; controls : int; u : float array; paths : int }

type body = Dmav of program | Local of local

type t = {
  body : body;
  dispatch : Cost.dispatch;
  identity_macs : float;
}

(* A Run call at hybrid-deep's sizes (n = 15-16, one domain, 2-core
   Xeon) took 15-25 ns per priced MAC, the vectors being larger than
   L2: at this threshold the longest of its 1.9 k calls per three jobs
   took 0.44 ms and the 99th percentile 0.24 ms. *)
let piece_macs = 8192.0

(* The Run work under each gate-local slot, priced like [Cost.priced]
   without its visits: a terminal path costs 1, a canonical identity
   node at level l costs [Cost.identity_price] per each of its 2^(l+1)
   MACs. Children have lower slots than their parents. *)
let work (a : Storage.arena) =
  let size = Array.length a.lv in
  let work = Array.make size 1.0 in
  for i = 1 to size - 1 do
    let l = a.lv.(i) in
    if l < Array.length a.ident && a.ident.(l) = i then
      work.(i) <- Float.ldexp Cost.identity_price (l + 1)
    else begin
      let sum = ref 0.0 in
      for q = 0 to 3 do
        let e = a.ch.((4 * i) + q) in
        if e <> 0 then sum := !sum +. work.(Dd.edge_tgt e)
      done;
      work.(i) <- !sum
    end
  done;
  work

(* Growable columns for the piece and task arrays. *)
type 'a column = { mutable items : 'a list; mutable count : int }

let column () = { items = []; count = 0 }

let push c x =
  c.items <- x :: c.items;
  c.count <- c.count + 1

let to_array c = Array.of_list (List.rev c.items)

(* Algorithm 1's Assign lists from Algorithm 2's: list [u] of the
   column-major lists holds column block [u]'s tasks in ascending row
   block ([start / h]); row-major list [r] holds row block [r]'s tasks in
   ascending column block, each starting at its column's V offset. The
   two recursions walk the same root-to-border paths, so node and weight
   are the same. *)
let transpose ~h (tasks : Cost.task list array) =
  let rows = Array.make (Array.length tasks) [] in
  Array.iteri
    (fun u lst ->
       List.iter
         (fun (task : Cost.task) ->
            let r = task.start / h in
            rows.(r) <- { task with start = u * h } :: rows.(r))
         lst)
    tasks;
  Array.map List.rev rows

let program ?(piece_macs = piece_macs) p ~n ~cached (b : Cost.breakdown) =
  let t = Array.length b.tasks in
  let h = (1 lsl n) / t in
  let tasks = if cached then b.tasks else transpose ~h b.tasks in
  let { Dd.arena = a; local } =
    Dd.export p (List.concat_map (List.map (fun (task : Cost.task) -> task.node)) (Array.to_list tasks))
  in
  let work = work a in
  let pieces = column () and weights = column () in
  let task_cols = column () and ratios = column () in
  let emit node iv iw fre fim =
    push pieces node;
    push pieces iv;
    push pieces iw;
    push weights fre;
    push weights fim
  in
  (* The Run recursion's own descent, down to pieces of at most
     [piece_macs]; it never splits below a node where Run stops walking
     (level 0, the terminal, a canonical identity). *)
  let rec split node iv iw fre fim =
    let l = a.lv.(node) in
    let stops = l <= 0 || (l < Array.length a.ident && a.ident.(l) = node) in
    if stops || work.(node) <= piece_macs then emit node iv iw fre fim
    else begin
      let half = 1 lsl l in
      for q = 0 to 3 do
        let e = a.ch.((4 * node) + q) in
        if e <> 0 then begin
          let wid = Dd.edge_wid e in
          let er = a.re.(wid) and ei = a.im.(wid) in
          split (Dd.edge_tgt e)
            (iv + ((q land 1) * half))
            (iw + ((q lsr 1) * half))
            ((fre *. er) -. (fim *. ei))
            ((fre *. ei) +. (fim *. er))
        end
      done
    end
  in
  let hits = ref 0 in
  let lists = Array.make (t + 1) 0 in
  let add_task start src first =
    push task_cols start;
    push task_cols src;
    push task_cols first
  in
  Array.iteri
    (fun u lst ->
       (* Algorithm 2's per-thread cache: a repeated sub-matrix node is
          served from the first task that ran it. *)
       let first : (int, Cnum.t * int) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun (task : Cost.task) ->
            let node = local task.node and w = task.weight in
            match if cached then Hashtbl.find_opt first node else None with
            | Some (f0, ip0) ->
              incr hits;
              let s = Cnum.div w f0 in
              add_task task.start ip0 (pieces.count / 3);
              push ratios s.Cnum.re;
              push ratios s.Cnum.im
            | None ->
              add_task task.start (-1) (pieces.count / 3);
              if cached then begin
                Hashtbl.replace first node (w, task.start);
                push ratios 0.0;
                push ratios 0.0;
                split node (u * h) task.start w.Cnum.re w.Cnum.im
              end
              else split node task.start (u * h) w.Cnum.re w.Cnum.im)
         lst;
       lists.(u + 1) <- task_cols.count / 3)
    tasks;
  add_task 0 (-1) (pieces.count / 3);
  (* Algorithm 2's partial-output buffers: which blocks each buffer
     holds (zeroed before the tasks run) and, per output block, the
     buffers summed into it, in the order the sum must take. *)
  let thread_buffer, buffers, occupied, contributors =
    if not cached then ([||], 0, [||], [||])
    else begin
      let blocks = Array.map (List.map (fun (task : Cost.task) -> task.start)) tasks in
      let v_b = b.thread_buffer and buffers = b.buffers in
      let occupied = Array.make buffers [] in
      let seen = Array.init buffers (fun _ -> Hashtbl.create 16) in
      Array.iteri
        (fun u blks ->
           let bi = v_b.(u) in
           List.iter
             (fun blk ->
                if not (Hashtbl.mem seen.(bi) blk) then begin
                  Hashtbl.replace seen.(bi) blk ();
                  occupied.(bi) <- blk :: occupied.(bi)
                end)
             blks)
        blocks;
      let contributors = Array.make t [] in
      Array.iteri
        (fun bi blks ->
           List.iter (fun blk -> contributors.(blk / h) <- bi :: contributors.(blk / h)) blks)
        occupied;
      (v_b, buffers, Array.map Array.of_list occupied, Array.map Array.of_list contributors)
    end
  in
  { n;
    arena = a;
    cached;
    threads = t;
    lists;
    tasks = to_array task_cols;
    ratios = to_array ratios;
    pieces = to_array pieces;
    weights = to_array weights;
    buffers;
    thread_buffer;
    occupied;
    contributors;
    hits = !hits }

(* --- forms: matrices on a few levels, without a DD ------------------- *)

(* A matrix on the [k] levels of [mask] (k ≤ 4), identity elsewhere: a
   dense 2^k × 2^k row-major (re, im) array, index bit i on the i-th
   lowest level of the mask, in the first 2·4^k floats of [m] (a
   product's [m] is its domain's scratch). A local form is one with
   k ≤ 2. *)
type form = { mask : int; k : int; m : float array }

let form_of (l : local) = { mask = l.support; k = Bits.popcount l.support; m = l.u }

let acts_on l = l.support lor l.controls

let levels mask =
  let lv = Array.make (Bits.popcount mask) 0 and rest = ref mask in
  Array.iteri
    (fun i _ ->
       lv.(i) <- Bits.floor_log2 (!rest land - !rest);
       rest := !rest land (!rest - 1))
    lv;
  lv

(* The [i]-th lowest level of [mask]. *)
let level mask i =
  let rest = ref mask in
  for _ = 1 to i do
    rest := !rest land (!rest - 1)
  done;
  Bits.floor_log2 (!rest land - !rest)

(* What the planner's form arithmetic works in, one per domain (the
   planners of concurrent jobs run on different domains), so that a
   product or a path count allocates nothing of its size: the blocks of
   a count walk, one per slot in unboxed columns (a 16×16 form's 256,
   then [masked_paths]'s named ones), the levels it spans, and a 16×16
   product. *)
type scratch = {
  kind : int array;  (* 0 zero, 1 identity, 2 other *)
  bre : float array;
  bim : float array;
  terminal : float array;
  stripe : float array;
  visits : float array;
  lv : int array;
  prod : float array;
}

let block_slots = 256 + 6

let scratch =
  Domain.DLS.new_key (fun () ->
      let col () = Array.make block_slots 0.0 in
      { kind = Array.make block_slots 0; bre = col (); bim = col (); terminal = col ();
        stripe = col (); visits = col (); lv = Array.make Sys.int_size 0;
        prod = Array.make 512 0.0 })

(* Float offset of entry (r, c). *)
let[@inline] at f r c = 2 * ((r lsl f.k) + c)

(* Entry at float offset [o] is 0 (either sign): [Float.equal x 0.0],
   without its call. *)
let[@inline] is_zero m o = Float.abs m.(o) <= 0.0 && Float.abs m.(o + 1) <= 0.0

let[@inline] near m o o' =
  Float.abs (m.(o) -. m.(o')) <= Cnum.tolerance
  && Float.abs (m.(o + 1) -. m.(o' + 1)) <= Cnum.tolerance

(* Index [x] with a 0 inserted at bit [b]. *)
let[@inline] widen b x = ((x lsr b) lsl (b + 1)) lor (x land ((1 lsl b) - 1))

(* The matrix does nothing on index bit [b]: its DD's nodes on that level
   are all (e, 0, 0, e). Checked r by r, c by c, up to the first entry
   that fails. *)
let trivial f b =
  let h = 1 lsl b and d = 1 lsl (f.k - 1) in
  let ok = ref true and r = ref 0 in
  while !ok && !r < d do
    let wr = widen b !r and c = ref 0 in
    while !ok && !c < d do
      let wc = widen b !c in
      ok :=
        is_zero f.m (at f wr (wc + h))
        && is_zero f.m (at f (wr + h) wc)
        && near f.m (at f wr wc) (at f (wr + h) (wc + h));
      incr c
    done;
    incr r
  done;
  !ok

(* The levels of [check] the matrix is trivial on are dropped: its
   support is the levels it acts on. A multiple of the identity acts on
   level n − 1. A dropped level compacts [m] in place: entry (r, c) of
   the smaller form sits at or below the entry it is copied from, and
   the ascending copy never overwrites an entry still to be read. *)
let rec reduce ~n ~check f =
  let rec find b =
    if b >= f.k then -1
    else if (check lsr level f.mask b) land 1 = 1 && trivial f b then b
    else find (b + 1)
  in
  match find 0 with
  | -1 -> f
  | _ when f.k = 1 -> { f with mask = 1 lsl (n - 1) }
  | b ->
    let g = { mask = f.mask land lnot (1 lsl level f.mask b); k = f.k - 1; m = f.m } in
    for r = 0 to (1 lsl g.k) - 1 do
      for c = 0 to (1 lsl g.k) - 1 do
        let o = at f (widen b r) (widen b c) and o' = at g r c in
        f.m.(o') <- f.m.(o);
        f.m.(o' + 1) <- f.m.(o + 1)
      done
    done;
    reduce ~n ~check g

(* Entries within the DD tolerance of zero become 0 (no edge), then
   [reduce]. *)
let normalize ~n ~check f =
  for o = 0 to (1 lsl (2 * f.k)) - 1 do
    if Float.abs f.m.(2 * o) <= Cnum.tolerance && Float.abs f.m.((2 * o) + 1) <= Cnum.tolerance
    then begin
      f.m.(2 * o) <- 0.0;
      f.m.((2 * o) + 1) <- 0.0
    end
  done;
  reduce ~n ~check f

(* The local of a form, with a matrix of its own. *)
let to_local ?(controls = 0) f =
  let len = 2 lsl (2 * f.k) in
  let u = if Array.length f.m = len then f.m else Array.sub f.m 0 len in
  let paths = ref 0 in
  for x = 0 to (1 lsl (2 * f.k)) - 1 do
    if not (is_zero u (2 * x)) then paths := !paths lor (1 lsl x)
  done;
  { support = f.mask; controls; u; paths = !paths }

(* The form on [mask] whose entry (r, c) is [entry r c]. *)
let dense_form mask entry =
  let f = { mask; k = Bits.popcount mask; m = [||] } in
  let d = 1 lsl f.k in
  let m = Array.make (2 * d * d) 0.0 in
  for r = 0 to d - 1 do
    for c = 0 to d - 1 do
      let z : Cnum.t = entry r c in
      m.(at f r c) <- z.re;
      m.(at f r c + 1) <- z.im
    done
  done;
  { f with m }

(* The normalized form on [mask] whose entry (r, c) is [entry r c],
   dropping the levels of [check] it is trivial on. *)
let form ~n ?controls ~check mask entry =
  to_local ?controls (normalize ~n ~check (dense_form mask entry))

let local_of_op ~n (op : Circuit.op) =
  match op with
  | Circuit.Single { matrix; target; controls; _ } ->
    (* Under controls the gate's 2×2 keeps its target level: only its
       zero entries are normalized away. *)
    let mask = 1 lsl target in
    form ~n ~controls:(Bits.all_masks controls) ~check:(if controls = [] then mask else 0) mask
      (fun r c -> matrix.(r).(c))
  | Circuit.Two { matrix; q_hi; q_lo; _ } ->
    let swap x = if q_hi > q_lo then x else ((x land 1) lsl 1) lor (x lsr 1) in
    let mask = (1 lsl q_hi) lor (1 lsl q_lo) in
    form ~n ~check:mask mask (fun r c -> matrix.(swap r).(swap c))

(* One control folds into a 4×4 on the target and control levels: the
   identity where the control is 0, the gate where it is 1, normalized as
   the op's DD would be. *)
let narrow ~n l =
  let mask = acts_on l in
  if l.controls = 0 then Some l
  else if Bits.popcount mask > 2 then None
  else begin
    (* The control's and the target's bit of a 4×4 index. *)
    let cbit, tbit = if l.controls > l.support then (1, 0) else (0, 1) in
    Some
      (form ~n ~check:mask mask (fun r c ->
           let cr = (r lsr cbit) land 1 and tr = (r lsr tbit) land 1 in
           let cc = (c lsr cbit) land 1 and tc = (c lsr tbit) land 1 in
           if cr <> cc then Cnum.zero
           else if cr = 1 then Cnum.make l.u.(2 * ((2 * tr) + tc)) l.u.((2 * ((2 * tr) + tc)) + 1)
           else if tr = tc then Cnum.one
           else Cnum.zero))
  end

(* [Dd.priced_paths] of a form's DD, from its block pattern, bottom up
   over the levels [lv] it spans (k of them): a block over the lowest j
   of them is zero, a non-zero multiple of the identity (a canonical
   identity node one level above its levels, at level n − 1 for the
   whole form; a scalar below level 0 is the terminal), or a node whose
   counts are its four quadrants' plus its own visit (at level 1 and
   up). Each of the m levels off the mask above such a node is a
   replication node (e, 0, 0, e), which doubles the counts and adds its
   own visit: 2^m·c + (2^m − 1) visits. Blocks are scratch slots;
   [set_ident] makes slot [x] the identity block at stage [j] and
   [set_node] the block that four slots at stage j − 1 form, reading
   them before it writes, so a slot may be its own quadrant. *)
let[@inline] top s ~n ~k j = if j = k then n - 1 else s.lv.(j) - 1

let set_zero s x =
  s.kind.(x) <- 0;
  s.bre.(x) <- 0.0;
  s.bim.(x) <- 0.0;
  s.terminal.(x) <- 0.0;
  s.stripe.(x) <- 0.0;
  s.visits.(x) <- 0.0

(* 2^i, exactly, for the walk's levels. *)
let pow2 = Array.init Sys.int_size (fun i -> Float.ldexp 1.0 i)

let[@inline] set_ident s ~n ~k j x re im =
  let top = top s ~n ~k j in
  s.kind.(x) <- 1;
  s.bre.(x) <- re;
  s.bim.(x) <- im;
  s.terminal.(x) <- (if top < 0 then 1.0 else 0.0);
  s.stripe.(x) <- (if top < 0 then 0.0 else pow2.(top + 1));
  s.visits.(x) <- 0.0

let set_node s ~n ~k j x q00 q01 q10 q11 =
  let kd = s.kind in
  if kd.(q00) = 0 && kd.(q01) = 0 && kd.(q10) = 0 && kd.(q11) = 0 then set_zero s x
  else if kd.(q01) = 0 && kd.(q10) = 0 && kd.(q00) = 1 && kd.(q11) = 1
          && Float.abs (s.bre.(q00) -. s.bre.(q11)) <= Cnum.tolerance
          && Float.abs (s.bim.(q00) -. s.bim.(q11)) <= Cnum.tolerance
  then set_ident s ~n ~k j x s.bre.(q00) s.bim.(q00)
  else begin
    let below = s.lv.(j - 1) in
    let double = pow2.(top s ~n ~k j - below) in
    let own = if below > 0 then 1.0 else 0.0 in
    let t = s.terminal and st = s.stripe and v = s.visits in
    let terminal = double *. (t.(q00) +. t.(q01) +. t.(q10) +. t.(q11))
    and stripe = double *. (st.(q00) +. st.(q01) +. st.(q10) +. st.(q11))
    and visits = (double *. (v.(q00) +. v.(q01) +. v.(q10) +. v.(q11) +. own)) +. (double -. 1.0) in
    kd.(x) <- 2;
    s.bre.(x) <- 0.0;
    s.bim.(x) <- 0.0;
    t.(x) <- terminal;
    st.(x) <- stripe;
    v.(x) <- visits
  end

(* Block [x] of stage 1 straight from the four entries of [m] at float
   offsets [o00] [o01] [o10] [o11], each a stage-0 block: zero, or the
   identity scaled by the entry, with [set_ident]'s counts at stage 0.
   [set_node] on those four blocks, with the same operands in the same
   order, without writing them. *)
let set_leaf s ~n ~k x m o00 o01 o10 o11 =
  let z00 = is_zero m o00 and z01 = is_zero m o01 and z10 = is_zero m o10 and z11 = is_zero m o11 in
  if z00 && z01 && z10 && z11 then set_zero s x
  else if z01 && z10 && (not z00) && (not z11)
          && Float.abs (m.(o00) -. m.(o11)) <= Cnum.tolerance
          && Float.abs (m.(o00 + 1) -. m.(o11 + 1)) <= Cnum.tolerance
  then set_ident s ~n ~k 1 x m.(o00) m.(o00 + 1)
  else begin
    let top0 = top s ~n ~k 0 and below = s.lv.(0) in
    let t0 = if top0 < 0 then 1.0 else 0.0 and s0 = if top0 < 0 then 0.0 else pow2.(top0 + 1) in
    let double = pow2.(top s ~n ~k 1 - below) in
    let own = if below > 0 then 1.0 else 0.0 in
    let[@inline] q z c = if z then 0.0 else c in
    let terminal = double *. (q z00 t0 +. q z01 t0 +. q z10 t0 +. q z11 t0)
    and stripe = double *. (q z00 s0 +. q z01 s0 +. q z10 s0 +. q z11 s0)
    and visits = (double *. (0.0 +. 0.0 +. 0.0 +. 0.0 +. own)) +. (double -. 1.0) in
    s.kind.(x) <- 2;
    s.bre.(x) <- 0.0;
    s.bim.(x) <- 0.0;
    s.terminal.(x) <- terminal;
    s.stripe.(x) <- stripe;
    s.visits.(x) <- visits
  end

(* The levels of [mask] into the scratch; returns how many. *)
let load_levels s mask =
  let rest = ref mask and k = ref 0 in
  while !rest <> 0 do
    s.lv.(!k) <- Bits.floor_log2 (!rest land - !rest);
    rest := !rest land (!rest - 1);
    incr k
  done;
  !k

let paths_of s x = { Dd.terminal = s.terminal.(x); stripe = s.stripe.(x); visits = s.visits.(x) }

(* A form's matrix, row-major, combined quadrant by quadrant: stage 1
   from the entries, then in place, block x of stage j reading the
   blocks from [c00] on, never below x. *)
let form_paths ~n f =
  let s = Domain.DLS.get scratch in
  let k = load_levels s f.mask in
  let d = 1 lsl k in
  let w = d lsr 1 in
  for x = 0 to (w * w) - 1 do
    let c00 = (4 * w * (x / w)) + (2 * (x mod w)) in
    set_leaf s ~n ~k x f.m (2 * c00) (2 * (c00 + 1)) (2 * (c00 + (2 * w))) (2 * (c00 + (2 * w) + 1))
  done;
  for j = 2 to k do
    let w = d lsr j in
    for x = 0 to (w * w) - 1 do
      let c00 = (4 * w * (x / w)) + (2 * (x mod w)) in
      set_node s ~n ~k j x c00 (c00 + 1) (c00 + (2 * w)) (c00 + (2 * w) + 1)
    done
  done;
  paths_of s 0

(* A controlled 2×2 without its matrix over the controls: below the
   target level a block is, up to a scalar, zero, the identity [i], the
   projector onto the controls so far all 1 ([p], which an off-diagonal
   entry of the gate scales) or the identity with a diagonal entry s of
   the gate on that projector ([d0], [d1]); at the target the gate's
   block [a] forms from them, and each control above adds (i, 0, 0, a).
   Each is a named scratch slot past the 16×16 form's. *)
let masked_paths ~n l =
  let s = Domain.DLS.get scratch in
  let k = load_levels s (acts_on l) in
  let z = 256 and i = 257 and p = 258 and d0 = 259 and d1 = 260 and a = 261 in
  let entry x slot =
    if is_zero l.u (2 * x) then set_zero s slot
    else set_ident s ~n ~k 0 slot l.u.(2 * x) l.u.((2 * x) + 1)
  in
  let off x = if is_zero l.u (2 * x) then z else p in
  set_zero s z;
  set_ident s ~n ~k 0 i 1.0 0.0;
  set_ident s ~n ~k 0 p 1.0 0.0;
  entry 0 d0;
  entry 3 d1;
  set_zero s a;
  for j = 1 to k do
    let b = 1 lsl s.lv.(j - 1) in
    if b = l.support then set_node s ~n ~k j a d0 (off 1) (off 2) d1
    else if b < l.support then begin
      set_node s ~n ~k j p z z z p;
      set_node s ~n ~k j d0 i z z d0;
      set_node s ~n ~k j d1 i z z d1
    end
    else set_node s ~n ~k j a i z z a;
    set_ident s ~n ~k j i 1.0 0.0
  done;
  paths_of s a

(* A form under controls has a one-level support ([local_of_op]). *)
let local_paths ~n l = if l.controls = 0 then form_paths ~n (form_of l) else masked_paths ~n l

type product = Narrow_product of local | Wide_product of Dd.paths

(* [Bits.extract] and [Bits.deposit] of 4-bit values on 4-bit masks, at
   [mask lsl 4 lor x]: the index arithmetic of a product on at most four
   levels. *)
let extract4 = Array.init 256 (fun i -> Bits.extract (i land 15) (i lsr 4))
let deposit4 = Array.init 256 (fun i -> Bits.deposit (i land 15) (i lsr 4))

let local_product ~n a b =
  let a = Option.get (narrow ~n a) and b = Option.get (narrow ~n b) in
  let mask = a.support lor b.support in
  let k = Bits.popcount mask in
  let d = 1 lsl k in
  let s = Domain.DLS.get scratch in
  let m = s.prod in
  Array.fill m 0 (2 * d * d) 0.0;
  let x = { mask; k; m } in
  (* Entry (r, c) of a·b, each side the identity off its own levels:
     term t ascending over the non-zero entries of row r of a and row t
     of b, with t ranging over the union indices that agree with r off
     a's levels. A side's bits of a union index are the positions of its
     levels among the union's; the side's index is their
     [Bits.extract], and [Bits.deposit] puts one back. *)
  let bits_a = Bits.extract a.support mask and bits_b = Bits.extract b.support mask in
  let da = 1 lsl Bits.popcount a.support and db = 1 lsl Bits.popcount b.support in
  let ga = bits_a lsl 4 and gb = bits_b lsl 4 in
  for r = 0 to d - 1 do
    let ra = extract4.(ga lor r) in
    for ca = 0 to da - 1 do
      let i = 2 * ((ra * da) + ca) in
      if not (is_zero a.u i) then begin
        let t = (r land lnot bits_a) lor deposit4.(ga lor ca) in
        let tb = extract4.(gb lor t) in
        for cb = 0 to db - 1 do
          let j = 2 * ((tb * db) + cb) in
          if not (is_zero b.u j) then begin
            let o = at x r ((t land lnot bits_b) lor deposit4.(gb lor cb)) in
            m.(o) <- m.(o) +. ((a.u.(i) *. b.u.(j)) -. (a.u.(i + 1) *. b.u.(j + 1)));
            m.(o + 1) <- m.(o + 1) +. ((a.u.(i) *. b.u.(j + 1)) +. (a.u.(i + 1) *. b.u.(j)))
          end
        done
      end
    done
  done;
  (* A level that only one side acts on stays non-trivial, the other
     side being invertible there, unless that side is a multiple of the
     identity (on level n − 1). *)
  let scalar l =
    if Bits.popcount l.support = 1 && trivial (form_of l) 0 then l.support else 0
  in
  let f = normalize ~n ~check:(a.support land b.support lor scalar a lor scalar b) x in
  if f.k <= 2 then Narrow_product (to_local f)
  else Wide_product (form_paths ~n f)

let local_dd p ~n l =
  let d = if Bits.popcount l.support = 1 then 2 else 4 in
  let m = Array.init d (fun r -> Array.init d (fun c ->
      let k = (r * d) + c in
      Cnum.make l.u.(2 * k) l.u.((2 * k) + 1)))
  in
  match levels l.support with
  | [| lo; hi |] -> Mat_dd.of_two p ~n ~q_hi:hi ~q_lo:lo m
  | lv -> Mat_dd.of_single p ~n ~target:lv.(0) ~controls:(Array.to_list (levels l.controls)) m

let of_local ~n ~threads l =
  let c = local_paths ~n l in
  { body = Local l;
    dispatch =
      Cost.local_dispatch ~n ~threads ~macs:(Cost.macs c) ~controls:l.controls l.support;
    identity_macs = c.Dd.stripe }

let s_cost = Obs.span "dmav.cost"

(* One Assign, column-major: the breakdown prices the gate, and the Run
   program runs its task lists and buffer plan. *)
let compile p ~n ~threads m =
  let b, dispatch =
    Obs.with_span s_cost (fun () ->
        let b = Cost.breakdown p ~n ~threads m in
        (b, Cost.dispatch ~n b))
  in
  let cached = dispatch.Cost.dmav.Cost.cached in
  { body = Dmav (program p ~n ~cached b);
    dispatch;
    identity_macs = (if cached then b.Cost.k2_stripe else b.Cost.k1_stripe) }

let pieces g = Array.length g.pieces / 3
