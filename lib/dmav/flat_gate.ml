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
  package_bytes : int;
}

(* A Run call at hybrid-deep's sizes (n = 15-16, one domain, 2-core
   Xeon) took 15-25 ns per priced MAC, the vectors being larger than
   L2: at this threshold the longest of its 1.9 k calls per three jobs
   took 0.44 ms and the 99th percentile 0.24 ms. *)
let piece_macs = 8192.0

(* The Run work under each gate-local slot, priced like
   [Cost.priced_macs]: a terminal path costs 1, a canonical identity node
   at level l costs [Cost.identity_price] per each of its 2^(l+1) MACs.
   Children have lower slots than their parents. *)
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

(* The local form of a gate of support at most two. Entry (r, c) of [u]
   is the weight product Run carries down the path of that row and
   column: [Cost.assign]'s product from one through the root edge, then
   one [Cnum.mul] per level, in Run's operand order. A trivial level
   takes its diagonal edge, an identity node's levels included (Run's
   stripe multiplies by its unit edge weight once per level too). An
   entry with no path stays 0 and its bit of [paths] clear, so the
   kernel does no MAC for it, as Run does none. *)
let local_of p root support =
  let d = if Bits.popcount support = 1 then 2 else 4 in
  let u = Array.make (2 * d * d) 0.0 and paths = ref 0 in
  let rec fill node (f : Cnum.t) r c =
    let l = Dd.mlevel p node in
    if l < 0 then begin
      u.(2 * ((r * d) + c)) <- f.Cnum.re;
      u.((2 * ((r * d) + c)) + 1) <- f.Cnum.im;
      paths := !paths lor (1 lsl ((r * d) + c))
    end
    else if (support lsr l) land 1 = 0 then step node f 0 0 r c
    else
      for q = 0 to 3 do
        step node f (q lsr 1) (q land 1) ((2 * r) + (q lsr 1)) ((2 * c) + (q land 1))
      done
  and step node f i j r c =
    let e = Dd.mchild p node i j in
    if not (Dd.medge_is_zero e) then fill (Dd.mtgt e) (Cnum.mul f (Dd.mw p e)) r c
  in
  fill (Dd.mtgt root) (Cnum.mul Cnum.one (Dd.mw p root)) 0 0;
  { support; u; paths = !paths }

let local p ~n root = Option.map (local_of p root) (Cost.support p ~n root)

let s_cost = Obs.span "dmav.cost"

let compile ?local_leg p ~n ~threads ?op m =
  let disp = Obs.with_span s_cost (fun () -> Cost.dispatch ?local_leg p ~n ~threads ?op m) in
  let d = disp.Cost.dmav in
  let body =
    match disp.Cost.kernel, op, disp.Cost.support with
    | Cost.Dense, Some op, _ -> Dense op
    | Cost.Local, _, Some s -> Local (local_of p m s)
    | _ -> Dmav (program p ~n ~t:d.Cost.threads_used ~cached:d.Cost.cached m)
  in
  let identity_macs =
    match body with
    | Dense _ -> 0.0
    | Dmav _ | Local _ -> if Obs.enabled () then Cost.identity_macs p ~n d m else 0.0
  in
  { body; dispatch = disp; identity_macs; package_bytes = Dd.memory_bytes p }

let pieces g = Array.length g.pieces / 3
