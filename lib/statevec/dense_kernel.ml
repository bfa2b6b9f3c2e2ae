(* Dense gate application over a storage kind [P : Storage.S] — the only
   dense kernel, for both precisions: [Apply] is its [State.t] adapter at
   [Storage.F64], the f32 engines instantiate it at [Storage.F32].

   The gate is checked once here, flattened to a float array, and each
   pool stripe of pair (or quad) indices is one call into a C stub:
   [P.dense_single] for a single-qubit gate, [P.local_apply], the local
   leg's walk with every path set, for a two-qubit one. Gate matrices
   stay f64; all arithmetic runs in double and only the stores round at
   [F32]. *)

(* Which dense body serves the run: Storage.dense_lanes (2, 4 or 8), set
   by every single-qubit gate rather than once, so a snapshot taken after
   a metrics reset still shows it. *)
let g_lanes = Obs.gauge "statevec.dense.lanes"

(* A d×d gate matrix as the C stubs take it: 2·d² floats, row-major
   (re, im). Loops, not [Array.init], which boxes every float: that
   version ran perfbench's flat-wide 4 % slower. *)
let flatten (m : Cnum.t array array) =
  let d = Array.length m in
  let u = Array.make (2 * d * d) 0.0 in
  for r = 0 to d - 1 do
    for c = 0 to d - 1 do
      u.(2 * ((d * r) + c)) <- m.(r).(c).Cnum.re;
      u.((2 * ((d * r) + c)) + 1) <- m.(r).(c).Cnum.im
    done
  done;
  u

(* Below this many iterations the parallel dispatch overhead dominates;
   run sequentially even when a pool is available. *)
let seq_threshold = 1 lsl 12

(* Run on one domain, a gate is several C calls of at most [stripe_max]
   pairs: a domain inside a [@@noalloc] call holds up every
   stop-the-world minor collection, and the flat phase's executor runs
   dense gates beside an allocating planner. The stripe split does not
   change the bytes. *)
let stripe_max = 1 lsl 15

(* A run's part holds at most this many bytes (half the 2 MB L2 of the
   host it was measured on), so a domain applying every gate of a run
   to one part works in its cache. *)
let part_bytes = 1 lsl 20

(* The bits a run of local gates cuts a state of [amplitude_bytes]-byte
   amplitudes on (DESIGN.md §9): the highest index bits that [support]
   leaves free, at least ⌈log2 threads⌉ of them (the Run's W-stripe bits
   when the gate is off them) and enough that a part holds at most
   [part_bytes]. Part [p] is the amplitudes whose split bits, lowest
   first, spell [p]. A state whose single-qubit gate has fewer than
   [seq_threshold] pairs runs on one domain: no split bits, one part. *)
let split_bits ~threads ~n ~amplitude_bytes support =
  if threads <= 1 || 1 lsl (n - 1) < seq_threshold then 0
  else begin
    let part_max = Bits.floor_log2 (part_bytes / amplitude_bytes) in
    let want = Int.max (Bits.floor_log2 ((2 * threads) - 1)) (n - part_max) in
    let split = ref 0 and q = ref (n - 1) in
    while Bits.popcount !split < want && !q >= 0 do
      if (support lsr !q) land 1 = 0 then split := !split lor (1 lsl !q);
      decr q
    done;
    !split
  end

module Make (P : Storage.S) = struct
  let zero_state n =
    let amps = P.create (1 lsl n) in
    P.set2 amps 0 1.0 0.0;
    amps

  let stripes ?pool ~hi body =
    match pool with
    | Some p when Pool.size p > 1 && hi >= seq_threshold ->
      Pool.parallel_for_ranges p ~lo:0 ~hi body
    | _ ->
      let lo = ref 0 in
      while !lo < hi do
        let next = Int.min hi (!lo + stripe_max) in
        body !lo next;
        lo := next
      done

  let single ?pool ~n amps (m : Gate.single) ~target ~controls =
    if target < 0 || target >= n then invalid_arg "Dense_kernel.single: bad target";
    List.iter
      (fun c ->
         if c < 0 || c >= n || c = target then
           invalid_arg "Dense_kernel.single: bad control")
      controls;
    if P.length amps <> 1 lsl n then invalid_arg "Dense_kernel.single: bad length";
    Obs.set_gauge g_lanes Storage.dense_lanes;
    let cmask = Bits.all_masks controls and u = flatten m in
    stripes ?pool ~hi:(1 lsl (n - 1 - Bits.popcount cmask)) (fun lo hi ->
        P.dense_single amps u ~target ~cmask ~lo ~hi)

  let two ?pool ~n amps (m : Gate.two) ~q_hi ~q_lo =
    if q_hi = q_lo || q_hi < 0 || q_lo < 0 || q_hi >= n || q_lo >= n then
      invalid_arg "Dense_kernel.two: bad qubits";
    if P.length amps <> 1 lsl n then invalid_arg "Dense_kernel.two: bad length";
    let u = flatten m in
    stripes ?pool ~hi:(1 lsl (n - 2)) (fun lo hi ->
        P.local_apply amps u ~major:(1 lsl q_hi) ~minor:(1 lsl q_lo) ~cmask:0 ~held:0
          ~paths:0xffff ~lo ~hi)

  (* The local leg of a flat gate ([Flat_gate.Local]) on part [part] of
     a state cut on the bits of [split] ([split_bits]): its 2×2 or 4×4
     matrix on the [support] levels, the higher one the major index bit,
     in place over [P.local_apply]'s groups whose [controls] bits are all
     1 and whose split bits spell [part]: the part's 1 bits join the
     control mask, its 0 bits are held. A control on a split bit the
     part holds at 0 leaves it nothing. At most [stripe_max] groups a C
     call; the gate allocates nothing. *)
  let local_part amps u ~support ~controls ~paths ~split ~part =
    let ones = Bits.deposit part split in
    if controls land split land lnot ones = 0 then begin
      let minor = support land -support in
      let major = support lxor minor in
      let cmask = controls lor ones and held = split land lnot ones in
      let hi = P.length amps lsr Bits.popcount (support lor cmask lor held) in
      let lo = ref 0 in
      while !lo < hi do
        let next = Int.min hi (!lo + stripe_max) in
        P.local_apply amps u ~major ~minor ~cmask ~held ~paths ~lo:!lo ~hi:next;
        lo := next
      done
    end

  let op ?pool ~n amps (o : Circuit.op) =
    match o with
    | Circuit.Single { matrix; target; controls; _ } ->
      single ?pool ~n amps matrix ~target ~controls
    | Circuit.Two { matrix; q_hi; q_lo; _ } -> two ?pool ~n amps matrix ~q_hi ~q_lo

  let circuit ?pool amps (c : Circuit.t) =
    if P.length amps <> 1 lsl c.Circuit.n then
      invalid_arg "Dense_kernel.circuit: qubit count mismatch";
    Array.iter (op ?pool ~n:c.Circuit.n amps) c.Circuit.ops

  let run ?pool (c : Circuit.t) =
    let amps = zero_state c.Circuit.n in
    circuit ?pool amps c;
    amps
end
