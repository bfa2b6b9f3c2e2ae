(* Algorithm 3 over matrix DDs, as the flat phase ran it before narrow
   gates were multiplied as 2×2 and 4×4 matrices: every product is a
   DDMM. A gate is narrow when it is an op on at most two qubits, or a
   product of two narrow gates that acts on at most two levels; the
   levels a gate acts on are read off its dense matrix. A narrow gate
   costs the cheaper of its local leg and its Run's priced MACs, any
   other gate its Run's priced MACs. The tests compare the scan's
   grouping against it and take its fused streams as kernel inputs. *)

let levels mask = List.filter (fun l -> (mask lsr l) land 1 = 1) (List.init Sys.int_size Fun.id)

(* The [2^k × 2^k] block of [m] on the [k] levels of [mask] (index bit i
   on the i-th lowest), every other row and column bit 0, read entry by
   entry: all of [m] when [m] acts on no other level. *)
let block p ~mask m =
  let lv = Array.of_list (levels mask) in
  let spread x =
    let acc = ref 0 in
    Array.iteri (fun i l -> if (x lsr i) land 1 = 1 then acc := !acc lor (1 lsl l)) lv;
    !acc
  in
  let d = 1 lsl Array.length lv in
  Array.init d (fun r -> Array.init d (fun c -> Dd.mentry p m (spread r) (spread c)))

(* The levels of [mask] that [block ~mask] acts on: those it is not
   block-identity on, i.e. where an entry off the level's diagonal is
   not within [Cnum.tolerance] of 0 or the level's two diagonal blocks
   differ by more. A multiple of the identity acts on level [n − 1]. *)
let support ~n ~mask (b : Cnum.t array array) =
  let d = Array.length b in
  let trivial h =
    let ok = ref true in
    for r = 0 to d - 1 do
      for c = 0 to d - 1 do
        if r land h <> c land h then ok := !ok && Cnum.equal b.(r).(c) Cnum.zero
        else if r land h = 0 then ok := !ok && Cnum.equal b.(r).(c) b.(r + h).(c + h)
      done
    done;
    !ok
  in
  let s =
    List.fold_left
      (fun (acc, i) l -> ((if trivial (1 lsl i) then acc else acc lor (1 lsl l)), i + 1))
      (0, 0) (levels mask)
    |> fst
  in
  if s = 0 then 1 lsl (n - 1) else s

(* A gate of the scan: its DD and, when narrow, the levels it acts on. *)
type gate = { dd : Dd.medge; narrow : int option }

let narrow_on p ~n ~mask dd =
  let s = support ~n ~mask (block p ~mask dd) in
  if Bits.popcount s <= 2 then Some s else None

let qubit_mask op = List.fold_left (fun acc q -> acc lor (1 lsl q)) 0 (Circuit.op_qubits op)

let of_op p ~n op =
  let dd = Mat_dd.of_op p ~n op in
  let mask = qubit_mask op in
  { dd; narrow = (if Bits.popcount mask <= 2 then narrow_on p ~n ~mask dd else None) }

let dmav_aware p ~n ops =
  let price g =
    let run = Cost.priced (Dd.priced_paths p g.dd) in
    match g.narrow with
    | Some support -> Cost.local_price ~n ~support run
    | None -> run
  in
  let out = ref [] and pending = ref None in
  List.iter
    (fun op ->
       let g_i = of_op p ~n op in
       let c_i = price g_i in
       match !pending with
       | None -> pending := Some (g_i, c_i)
       | Some (g_p, c_p) ->
         let dd = Dd.mm p g_i.dd g_p.dd in
         let narrow =
           match g_i.narrow, g_p.narrow with
           | Some a, Some b -> narrow_on p ~n ~mask:(a lor b) dd
           | _ -> None
         in
         let g_ip = { dd; narrow } in
         let c_ip = price g_ip in
         if c_i +. c_p < c_ip then begin
           out := g_p :: !out;
           pending := Some (g_i, c_i)
         end
         else pending := Some (g_ip, c_ip))
    ops;
  (match !pending with Some (g, _) -> out := g :: !out | None -> ());
  List.rev !out

(* The fused gates' DDs. *)
let fused_dds p ~n ops = List.map (fun g -> g.dd) (dmav_aware p ~n ops)
