(* A flat-phase gate compiled once, at planning time, into everything the
   DMAV executor needs: the kernel pick priced at the real pool size,
   the sub-matrices its tasks enter in the gate's own arena
   ([Dd.export]), and Algorithm 1's or 2's task lists turned into flat
   arrays of Run calls over gate-local slots. After
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

type local = { support : int; u : float array; paths : int }

type body = Dense of Circuit.op | Dmav of program | Local of local

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

(* The Run work under each gate-local slot, priced like
   [Cost.priced_macs] without its visits: a terminal path costs 1, a
   canonical identity node at level l costs [Cost.identity_price] per
   each of its 2^(l+1) MACs. Children have lower slots than their
   parents. *)
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

let program ?(piece_macs = piece_macs) p ~n ~t ~cached root =
  let tasks =
    Cost.assign p ~n ~t (if cached then Cost.Column_major else Cost.Row_major) root
  in
  let { Dd.arena = a; local } =
    Dd.export p (List.concat_map (List.map (fun (task : Cost.task) -> task.node)) (Array.to_list tasks))
  in
  let work = work a in
  let h = (1 lsl n) / t in
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
      let v_b, buffers = Cost.allocate_buffers blocks in
      let occupied = Array.make buffers [] in
      let seen = Array.init buffers (fun _ -> Hashtbl.create 16) in
      Array.iteri
        (fun u blks ->
           let bi = v_b.(u) in
           List.iter
             (fun b ->
                if not (Hashtbl.mem seen.(bi) b) then begin
                  Hashtbl.replace seen.(bi) b ();
                  occupied.(bi) <- b :: occupied.(bi)
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

(* --- narrow forms: matrices on a few levels, without a DD ------------ *)

(* A matrix on the [k] levels of [mask] (k ≤ 4), identity elsewhere: a
   dense 2^k × 2^k row-major (re, im) array, index bit i on the i-th
   lowest level of the mask. A local form is one with k ≤ 2. *)
type form = { mask : int; k : int; m : float array }

let form_of (l : local) = { mask = l.support; k = Bits.popcount l.support; m = l.u }

let levels mask =
  let lv = Array.make (Bits.popcount mask) 0 and rest = ref mask in
  Array.iteri
    (fun i _ ->
       lv.(i) <- Bits.floor_log2 (!rest land - !rest);
       rest := !rest land (!rest - 1))
    lv;
  lv

(* Float offset of entry (r, c). *)
let[@inline] at f r c = 2 * ((r lsl f.k) + c)

let[@inline] is_zero m o = Float.equal m.(o) 0.0 && Float.equal m.(o + 1) 0.0

let[@inline] near m o o' =
  Float.abs (m.(o) -. m.(o')) <= Cnum.tolerance
  && Float.abs (m.(o + 1) -. m.(o' + 1)) <= Cnum.tolerance

(* [f r c] for every r, c < d, stopping at the first that fails. *)
let for_all2 d f =
  let ok = ref true and r = ref 0 in
  while !ok && !r < d do
    let c = ref 0 in
    while !ok && !c < d do
      ok := f !r !c;
      incr c
    done;
    incr r
  done;
  !ok

(* Index [x] with a 0 inserted at bit [b]. *)
let widen b x = ((x lsr b) lsl (b + 1)) lor (x land ((1 lsl b) - 1))

(* The matrix does nothing on index bit [b]: its DD's nodes on that level
   are all (e, 0, 0, e). *)
let trivial f b =
  let h = 1 lsl b in
  for_all2 (1 lsl (f.k - 1)) (fun r c ->
      let r = widen b r and c = widen b c in
      is_zero f.m (at f r (c + h))
      && is_zero f.m (at f (r + h) c)
      && near f.m (at f r c) (at f (r + h) (c + h)))

(* The levels of [check] the matrix is trivial on are dropped: its
   support is the levels it acts on. A multiple of the identity acts on
   level n − 1. *)
let rec reduce ~n ~check f =
  let lv = levels f.mask in
  let rec find b =
    if b >= f.k then None
    else if (check lsr lv.(b)) land 1 = 1 && trivial f b then Some b
    else find (b + 1)
  in
  match find 0 with
  | None -> f
  | Some _ when f.k = 1 -> { f with mask = 1 lsl (n - 1) }
  | Some b ->
    let g = { mask = f.mask land lnot (1 lsl lv.(b)); k = f.k - 1; m = [||] } in
    let m = Array.make (2 lsl (2 * g.k)) 0.0 in
    for r = 0 to (1 lsl g.k) - 1 do
      for c = 0 to (1 lsl g.k) - 1 do
        let o = at f (widen b r) (widen b c) in
        m.(at g r c) <- f.m.(o);
        m.(at g r c + 1) <- f.m.(o + 1)
      done
    done;
    reduce ~n ~check { g with m }

(* Entries within the DD tolerance of zero become 0 (no edge), then
   [reduce]. *)
let normalize ~n ~check f =
  for o = 0 to (Array.length f.m / 2) - 1 do
    if Float.abs f.m.(2 * o) <= Cnum.tolerance && Float.abs f.m.((2 * o) + 1) <= Cnum.tolerance
    then begin
      f.m.(2 * o) <- 0.0;
      f.m.((2 * o) + 1) <- 0.0
    end
  done;
  reduce ~n ~check f

let to_local f =
  let paths = ref 0 in
  for x = 0 to (1 lsl (2 * f.k)) - 1 do
    if not (is_zero f.m (2 * x)) then paths := !paths lor (1 lsl x)
  done;
  { support = f.mask; u = f.m; paths = !paths }

let local_of_op ~n (op : Circuit.op) =
  let form mask entry =
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
    Some (to_local (normalize ~n ~check:mask { f with m }))
  in
  match op with
  | Circuit.Single { matrix; target; controls = []; _ } ->
    form (1 lsl target) (fun r c -> matrix.(r).(c))
  | Circuit.Single { matrix; target; controls = [ ctl ]; _ } ->
    (* The identity where the control is 0, the gate where it is 1. *)
    let split x = if ctl > target then (x lsr 1, x land 1) else (x land 1, x lsr 1) in
    form ((1 lsl target) lor (1 lsl ctl)) (fun r c ->
        let cr, tr = split r and cc, tc = split c in
        if cr <> cc then Cnum.zero
        else if cr = 1 then matrix.(tr).(tc)
        else if tr = tc then Cnum.one
        else Cnum.zero)
  | Circuit.Single _ -> None
  | Circuit.Two { matrix; q_hi; q_lo; _ } ->
    let swap x = if q_hi > q_lo then x else ((x land 1) lsl 1) lor (x lsr 1) in
    form ((1 lsl q_hi) lor (1 lsl q_lo)) (fun r c -> matrix.(swap r).(swap c))

(* [Dd.priced_paths] of the form's DD, from its block pattern, bottom
   up: a block over the lowest j index bits is zero, a non-zero multiple
   of the identity (a canonical identity node one level above its
   levels, at level n − 1 for the whole form; a scalar below level 0 is
   the terminal), or a node whose paths are its four quadrants' plus its
   own visit (at level 1 and up). Each of the m levels off the mask
   above such a node is a replication node (e, 0, 0, e), which doubles
   the count and adds its own visit: 2^m·c + (2^m − 1)·visit. *)
let form_paths ~n ~terminal ~identity ~visit f =
  let lv = levels f.mask and d = 1 lsl f.k in
  let top j = if j = f.k then n - 1 else lv.(j) - 1 in
  let stripe j = if top j < 0 then terminal else Float.ldexp identity (top j + 1) in
  (* Per block, row-major in place: 0 zero, 1 identity (its scalar at
     float offset [scalar]), 2 other; and its priced paths. *)
  let kind = Array.make (d * d) 0 and count = Array.make (d * d) 0.0 in
  let scalar = Array.make (d * d) 0 in
  let s0 = stripe 0 in
  for x = 0 to (d * d) - 1 do
    scalar.(x) <- 2 * x;
    if not (is_zero f.m (2 * x)) then begin
      kind.(x) <- 1;
      count.(x) <- s0
    end
  done;
  for j = 1 to f.k do
    let w = d lsr j and sj = stripe j and double = Float.ldexp 1.0 (top j - lv.(j - 1)) in
    let own = if lv.(j - 1) > 0 then visit else 0.0 in
    for br = 0 to w - 1 do
      for bc = 0 to w - 1 do
        let c00 = (2 * br * 2 * w) + (2 * bc) in
        let c01 = c00 + 1 and c10 = c00 + (2 * w) in
        let c11 = c10 + 1 and x = (br * w) + bc in
        let k00 = kind.(c00) and k01 = kind.(c01) and k10 = kind.(c10) and k11 = kind.(c11) in
        if k00 = 0 && k01 = 0 && k10 = 0 && k11 = 0 then begin
          kind.(x) <- 0;
          count.(x) <- 0.0
        end
        else if k01 = 0 && k10 = 0 && k00 = 1 && k11 = 1 && near f.m scalar.(c00) scalar.(c11)
        then begin
          kind.(x) <- 1;
          scalar.(x) <- scalar.(c00);
          count.(x) <- sj
        end
        else begin
          kind.(x) <- 2;
          count.(x) <-
            (double *. (count.(c00) +. count.(c01) +. count.(c10) +. count.(c11) +. own))
            +. ((double -. 1.0) *. visit)
        end
      done
    done
  done;
  count.(0)

let local_paths ~n ~terminal ~identity ~visit l =
  form_paths ~n ~terminal ~identity ~visit (form_of l)

type product = Narrow_product of local | Wide_product of float

(* The bits of a union index that the levels of [support] take, and
   their packed value ([gather]) or the packed value [v] spread back onto
   them ([spread]). *)
let side lv support =
  let pos = Array.of_list (List.filter (fun i -> (support lsr lv.(i)) land 1 = 1) (List.init (Array.length lv) Fun.id)) in
  let pack x =
    let acc = ref 0 in
    for j = 0 to Array.length pos - 1 do
      acc := !acc lor (((x lsr pos.(j)) land 1) lsl j)
    done;
    !acc
  in
  let spread v =
    let acc = ref 0 in
    for j = 0 to Array.length pos - 1 do
      acc := !acc lor (((v lsr j) land 1) lsl pos.(j))
    done;
    !acc
  in
  let own = 1 lsl Array.length pos in
  (spread (own - 1), Array.init (1 lsl Array.length lv) pack, Array.init own spread)

let local_product ~n ~identity a b =
  let mask = a.support lor b.support in
  let lv = levels mask in
  let d = 1 lsl Array.length lv in
  let m = Array.make (2 * d * d) 0.0 in
  let x = { mask; k = Array.length lv; m } in
  (* Entry (r, c) of a·b, each side the identity off its own levels:
     term t ascending over the non-zero entries of row r of a and row t
     of b, with t ranging over the union indices that agree with r off
     a's levels. *)
  let bits_a, gather_a, spread_a = side lv a.support
  and bits_b, gather_b, spread_b = side lv b.support in
  let da = Array.length spread_a and db = Array.length spread_b in
  for r = 0 to d - 1 do
    let ra = gather_a.(r) in
    for ca = 0 to da - 1 do
      let i = 2 * ((ra * da) + ca) in
      if not (is_zero a.u i) then begin
        let t = (r land lnot bits_a) lor spread_a.(ca) in
        let tb = gather_b.(t) in
        for cb = 0 to db - 1 do
          let j = 2 * ((tb * db) + cb) in
          if not (is_zero b.u j) then begin
            let o = at x r ((t land lnot bits_b) lor spread_b.(cb)) in
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
  else Wide_product (form_paths ~n ~terminal:1.0 ~identity ~visit:Cost.visit_price f)

let local_dd p ~n l =
  let d = if Bits.popcount l.support = 1 then 2 else 4 in
  let m = Array.init d (fun r -> Array.init d (fun c ->
      let k = (r * d) + c in
      Cnum.make l.u.(2 * k) l.u.((2 * k) + 1)))
  in
  match levels l.support with
  | [| lo; hi |] -> Mat_dd.of_two p ~n ~q_hi:hi ~q_lo:lo m
  | lv -> Mat_dd.of_single p ~n ~target:lv.(0) ~controls:[] m

let of_local ~n ~threads ?op l =
  let dispatch =
    Cost.local_dispatch ~n ~threads ?op
      ~macs:(local_paths ~n ~terminal:1.0 ~identity:1.0 ~visit:0.0 l) l.support
  in
  let body, identity_macs =
    match dispatch.Cost.kernel, op with
    | Cost.Dense, Some op -> (Dense op, 0.0)
    | _ ->
      ( Local l,
        if Obs.enabled () then local_paths ~n ~terminal:0.0 ~identity:1.0 ~visit:0.0 l else 0.0 )
  in
  { body; dispatch; identity_macs }

let s_cost = Obs.span "dmav.cost"

let compile p ~n ~threads ?op m =
  let disp = Obs.with_span s_cost (fun () -> Cost.dispatch p ~n ~threads ?op m) in
  let d = disp.Cost.dmav in
  let body, identity_macs =
    match disp.Cost.kernel, op with
    | Cost.Dense, Some op -> (Dense op, 0.0)
    | _ ->
      ( Dmav (program p ~n ~t:d.Cost.threads_used ~cached:d.Cost.cached m),
        if Obs.enabled () then Cost.identity_macs p ~n d m else 0.0 )
  in
  { body; dispatch = disp; identity_macs }

let pieces g = Array.length g.pieces / 3
