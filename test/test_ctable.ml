let test_seeded_constants () =
  let t = Ctable.create () in
  Alcotest.(check int) "zero id" Ctable.zero_id (Ctable.id t Cnum.zero);
  Alcotest.(check int) "one id" Ctable.one_id (Ctable.id t Cnum.one);
  Alcotest.(check int) "two constants pre-seeded" 2 (Ctable.count t)

let test_snapping () =
  let t = Ctable.create () in
  let a = Ctable.canon t (Cnum.make 0.5 0.25) in
  let b = Ctable.canon t (Cnum.make (0.5 +. 1e-12) (0.25 -. 1e-12)) in
  Alcotest.(check bool) "snapped to same representative" true (a == b);
  Alcotest.(check int) "same id" (Ctable.id t a) (Ctable.id t b)

let test_near_zero_snaps_to_zero () =
  let t = Ctable.create () in
  let z = Ctable.canon t (Cnum.make 1e-14 (-1e-14)) in
  Alcotest.(check bool) "exact zero" true
    (Float.equal z.Cnum.re 0.0 && Float.equal z.Cnum.im 0.0);
  Alcotest.(check int) "zero id" Ctable.zero_id (Ctable.id t z)

let test_distinct_values_distinct_ids () =
  let t = Ctable.create () in
  let i1 = Ctable.id t (Cnum.make 0.1 0.0) in
  let i2 = Ctable.id t (Cnum.make 0.2 0.0) in
  let i3 = Ctable.id t (Cnum.make 0.1 0.1) in
  Alcotest.(check bool) "all distinct" true (i1 <> i2 && i2 <> i3 && i1 <> i3)

let test_id_stability () =
  let t = Ctable.create () in
  let v = Cnum.make (-0.7071) 0.7071 in
  let id1 = Ctable.id t v in
  for _ = 1 to 10 do
    ignore (Ctable.id t (Cnum.make (Rng.float (Rng.create 1) 1.0) 0.0))
  done;
  Alcotest.(check int) "id stable across other insertions" id1 (Ctable.id t v)

let test_boundary_of_tolerance () =
  (* Values farther than ~2 grid cells apart must stay distinct. *)
  let t = Ctable.create ~tolerance:1e-10 () in
  let a = Ctable.id t (Cnum.make 0.5 0.0) in
  let b = Ctable.id t (Cnum.make (0.5 +. 1e-6) 0.0) in
  Alcotest.(check bool) "well-separated values distinct" true (a <> b)

let test_clear () =
  let t = Ctable.create () in
  ignore (Ctable.id t (Cnum.make 0.3 0.4));
  ignore (Ctable.id t (Cnum.make 0.6 0.8));
  Alcotest.(check int) "count grew" 4 (Ctable.count t);
  Ctable.clear t;
  Alcotest.(check int) "back to constants" 2 (Ctable.count t);
  Alcotest.(check int) "zero id preserved" Ctable.zero_id (Ctable.id t Cnum.zero);
  Alcotest.(check int) "one id preserved" Ctable.one_id (Ctable.id t Cnum.one)

let test_memory_grows () =
  let t = Ctable.create () in
  let m0 = Ctable.memory_bytes t in
  for k = 1 to 100 do
    ignore (Ctable.id t (Cnum.make (float_of_int k /. 7.0) 0.0))
  done;
  Alcotest.(check bool) "memory accounting grows" true (Ctable.memory_bytes t > m0)

let prop_canon_idempotent =
  QCheck.Test.make ~name:"canon is idempotent" ~count:300
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (re, im) ->
       let t = Ctable.create () in
       let c = Ctable.canon t (Cnum.make re im) in
       Ctable.canon t c == c)

let prop_canon_within_tolerance =
  QCheck.Test.make ~name:"canon moves a value by at most the tolerance" ~count:300
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (re, im) ->
       let t = Ctable.create () in
       let v = Cnum.make re im in
       let c = Ctable.canon t v in
       Float.abs (c.Cnum.re -. re) <= Cnum.tolerance
       && Float.abs (c.Cnum.im -. im) <= Cnum.tolerance)

(* The list-based store this table replaced, kept as the differential
   reference: buckets are newest-first lists keyed by (stripe, cell key),
   searched own cell first and then in the fixed 3×3 order; ids come in
   256-id blocks per stripe. It also counts the two paths the replay must
   cover: inserts into an occupied bucket and hits found in a neighbour. *)
module Ref_store = struct
  type t = {
    tol : float;
    inv : float;
    buckets : (int * int, (Cnum.t * int) list) Hashtbl.t;
    blocks : (int * int) array;
    mutable next_id : int;
    mutable count : int;
    mutable chained : int;
    mutable neighbour_hits : int;
  }

  let cell t v = int_of_float (Float.floor (v *. t.inv))
  let key cr ci = (cr * 0x1fffffefd) lxor ci

  let stripe cr ci =
    ((((cr asr 2) * 0x9E3779B1) lxor ((ci asr 2) * 0x85EBCA77)) lsr 17) land 63

  let bucket cr ci = (stripe cr ci, key cr ci)

  let push t (v : Cnum.t) id =
    let b = bucket (cell t v.Cnum.re) (cell t v.Cnum.im) in
    let l = Option.value ~default:[] (Hashtbl.find_opt t.buckets b) in
    if l <> [] then t.chained <- t.chained + 1;
    Hashtbl.replace t.buckets b ((v, id) :: l);
    t.count <- t.count + 1

  let seed t =
    push t Cnum.zero 0;
    push t Cnum.one 1;
    t.next_id <- 2

  let create ?(tolerance = Cnum.tolerance) () =
    let t =
      { tol = tolerance; inv = 1.0 /. tolerance; buckets = Hashtbl.create 64;
        blocks = Array.make 64 (0, 0); next_id = 0; count = 0; chained = 0;
        neighbour_hits = 0 }
    in
    seed t;
    t

  let probe t cr ci (c : Cnum.t) =
    List.find_map
      (fun ((v : Cnum.t), id) ->
         if Float.abs (v.Cnum.re -. c.Cnum.re) <= t.tol
         && Float.abs (v.Cnum.im -. c.Cnum.im) <= t.tol
         then Some id
         else None)
      (Option.value ~default:[] (Hashtbl.find_opt t.buckets (bucket cr ci)))

  let neighbours =
    [ (-1, -1); (-1, 0); (-1, 1); (0, -1); (0, 1); (1, -1); (1, 0); (1, 1) ]

  let id t (c : Cnum.t) =
    let cr = cell t c.Cnum.re and ci = cell t c.Cnum.im in
    match probe t cr ci c with
    | Some id -> id
    | None -> (
        match List.find_map (fun (dr, di) -> probe t (cr + dr) (ci + di) c) neighbours with
        | Some id ->
          t.neighbour_hits <- t.neighbour_hits + 1;
          id
        | None ->
          let s = stripe cr ci in
          let b, e = t.blocks.(s) in
          let b, e =
            if b < e then (b, e)
            else begin
              t.next_id <- t.next_id + 256;
              (t.next_id - 256, t.next_id)
            end
          in
          t.blocks.(s) <- (b + 1, e);
          push t c b;
          b)

  let clear t =
    Hashtbl.reset t.buckets;
    Array.fill t.blocks 0 64 (0, 0);
    t.count <- 0;
    seed t
end

(* Values clustered around a few hundred sites: each site is a grid cell,
   and a value lands within ±2.5 tolerances of its centre, a fifth of them
   within 1e-3 tolerance of a cell boundary, so lookups snap to near-equal
   representatives in the own cell and in every neighbour. Each random
   site is followed, when a search finds one, by a partner cell with the
   same bucket key and stripe, so buckets hold chains of unrelated
   cells. *)
let clustered_values ~seed count =
  let tol = Cnum.tolerance in
  let rng = Rng.create seed in
  let inv = 1.0 /. tol in
  let cell v = int_of_float (Float.floor (v *. inv)) in
  let centre c = (float_of_int c +. 0.5) *. tol in
  let exact c = cell (centre c) = c in
  let base () = Rng.int rng 40_000_000_000 - 20_000_000_000 in
  let sites = ref [] in
  while List.length !sites < 300 do
    let cr = base () and ci = base () in
    if exact cr && exact ci then begin
      sites := (cr, ci) :: !sites;
      (* A key- and stripe-colliding partner cell, if one turns up. *)
      let found = ref false and tries = ref 0 in
      while (not !found) && !tries < 4096 do
        incr tries;
        let cr' = cr + 1 + Rng.int rng 64 in
        let ci' =
          ci lxor (cr * 0x1fffffefd) lxor (cr' * 0x1fffffefd)
        in
        if
          Ref_store.stripe cr' ci' = Ref_store.stripe cr ci
          && Ref_store.key cr' ci' = Ref_store.key cr ci
          && abs ci' < 1 lsl 40 && exact cr' && exact ci'
        then begin
          found := true;
          sites := (cr', ci') :: !sites
        end
      done
    end
  done;
  let sites = Array.of_list !sites in
  let coord c =
    let r = Rng.float rng 1.0 in
    if r < 0.2 then
      (* Just either side of one of the cell's boundaries. *)
      let b = float_of_int (c + Rng.int rng 2) *. tol in
      b +. ((Rng.float rng 2e-3 -. 1e-3) *. tol)
    else centre c +. ((Rng.float rng 5.0 -. 2.5) *. tol)
  in
  Array.init count (fun _ ->
      let cr, ci = sites.(Rng.int rng (Array.length sites)) in
      Cnum.make (coord cr) (coord ci))

let test_differential_against_list_store () =
  let values = clustered_values ~seed:7 24_000 in
  let t = Ctable.create () and r = Ref_store.create () in
  Array.iteri
    (fun k v ->
       if k = Array.length values / 2 then begin
         Ctable.clear t;
         Ref_store.clear r
       end;
       let got = Ctable.id t v and want = Ref_store.id r v in
       if got <> want || Ctable.count t <> r.Ref_store.count then
         Alcotest.failf "lookup %d: id %d count %d, reference id %d count %d" k got
           (Ctable.count t) want r.Ref_store.count)
    values;
  Alcotest.(check bool) "buckets held chains" true (r.Ref_store.chained > 100);
  Alcotest.(check bool) "hits came from neighbour cells" true (r.Ref_store.neighbour_hits > 100)

let test_hit_allocates_nothing () =
  let t = Ctable.create () in
  let values = Array.init 100 (fun k -> Cnum.make (float_of_int k /. 7.0) (-0.5)) in
  Array.iter (fun v -> ignore (Ctable.id t v)) values;
  let ids = Array.map (Ctable.id t) values in
  let w0 = Gc.minor_words () in
  let same = ref 0 in
  for k = 0 to 9_999 do
    if Ctable.id t values.(k mod 100) = ids.(k mod 100) then incr same
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "all hits" 10_000 !same;
  Alcotest.(check (float 0.0)) "minor words for 10 000 hits" 0.0 (w1 -. w0)

let suite =
  [ ( "ctable",
      [ Alcotest.test_case "seeded constants" `Quick test_seeded_constants;
        Alcotest.test_case "snapping within tolerance" `Quick test_snapping;
        Alcotest.test_case "near-zero snaps to zero" `Quick test_near_zero_snaps_to_zero;
        Alcotest.test_case "distinct values distinct ids" `Quick
          test_distinct_values_distinct_ids;
        Alcotest.test_case "id stability" `Quick test_id_stability;
        Alcotest.test_case "separated values stay distinct" `Quick
          test_boundary_of_tolerance;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "memory accounting" `Quick test_memory_grows;
        Alcotest.test_case "differential against the list store" `Quick
          test_differential_against_list_store;
        Alcotest.test_case "a hit allocates nothing" `Quick test_hit_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_canon_idempotent;
        QCheck_alcotest.to_alcotest prop_canon_within_tolerance ] ) ]
