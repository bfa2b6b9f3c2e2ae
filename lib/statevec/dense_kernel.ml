(* Dense gate application over a storage kind [P : Storage.S] — the only
   dense kernel, for both precisions: [Apply] is its [State.t] adapter at
   [Storage.F64], the f32 engines instantiate it at [Storage.F32].

   The gate is checked once here, flattened to a float array, and each
   pool stripe of pair (or quad) indices is one call into a C stub:
   [P.dense_single] for a single-qubit gate, [P.local_apply], the local
   leg's walk with every path set, for a two-qubit one. Gate matrices
   stay f64; all arithmetic runs in double and only the stores round at
   [F32]. *)

(* Which dense body serves the run: Storage.dense_lanes (2 or 4), set
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

module Make (P : Storage.S) = struct
  let seq_threshold = 1 lsl 12
  (* Below this many iterations the parallel dispatch overhead dominates;
     run sequentially even when a pool is available. *)

  let zero_state n =
    let amps = P.create (1 lsl n) in
    P.set2 amps 0 1.0 0.0;
    amps

  (* Run on one domain, a gate is several C calls of at most
     [stripe_max] pairs: a domain inside a [@@noalloc] call holds up
     every stop-the-world minor collection, and the flat phase's
     executor runs dense gates beside an allocating planner. The stripe
     split does not change the bytes. *)
  let stripe_max = 1 lsl 15

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
        P.local_apply amps u ~major:(1 lsl q_hi) ~minor:(1 lsl q_lo) ~paths:0xffff ~lo ~hi)

  (* The local leg of an uncached DMAV gate ([Flat_gate.Local]): its
     2×2 or 4×4 matrix on the [support] levels, the higher one the major
     index bit, in place, over [P.local_apply]'s groups, cut as
     [stripes] cuts pairs. The one-domain loop is written out so that the
     gate allocates nothing. *)
  let local ~pool amps u ~support ~paths =
    let minor = support land -support in
    let major = support lxor minor in
    let hi = P.length amps lsr Bits.popcount support in
    if Pool.size pool > 1 && hi >= seq_threshold then
      Pool.parallel_for_ranges pool ~lo:0 ~hi (fun lo hi ->
          P.local_apply amps u ~major ~minor ~paths ~lo ~hi)
    else begin
      let lo = ref 0 in
      while !lo < hi do
        let next = Int.min hi (!lo + stripe_max) in
        P.local_apply amps u ~major ~minor ~paths ~lo:!lo ~hi:next;
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
