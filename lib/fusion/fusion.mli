(** Gate fusion for the DMAV phase (paper §3.3).

    Both strategies take the gates remaining after FlatDD's DD→array
    conversion and return a shorter list of (possibly fused) gates whose
    product, applied in list order, equals the product of the input gates
    applied in list order.

    {!dmav_aware} is Algorithm 3: a greedy scan that fuses the incoming
    gate into the pending one exactly when the fused gate's modeled DMAV
    cost is not more than the two gates' costs applied sequentially
    ([c_ip ≤ c_i + c_p]). The product itself is ignored by the model, as
    in the paper: it never touches 2ⁿ-sized data.

    Every op is its form ({!Flat_gate.local_of_op}: a 2×2 or 4×4 matrix
    on its target levels under a control mask, no DD), which an op left
    alone is emitted as. A form on at most two levels, controls included,
    is a narrow gate ({!Flat_gate.narrow}); an op on more levels takes
    part in products by DDMM, its matrix DD built when a product first
    needs it. Two narrow gates multiply as matrices
    ({!Flat_gate.local_product}), and a product on three or four levels
    is priced from its matrix. Every other product is a DD matrix-matrix
    multiplication (DDMM), whose sides' DDs are built only then; it is
    wide, whatever its DD turns out to act on.

    The modeled cost is the gate's price on one thread, not the paper's
    plain path count. Each scan gate carries its path counts
    ({!Dd.paths}, counted once: from its form for an op or a narrow
    gate, from its matrix for a product priced from it, else by one walk
    of its DD), and
    its price and its MACs in the stats are arithmetic on them. On the
    Run a path costs one MAC, except that a canonical identity node at
    level [l] costs
    [Cost.identity_price × 2^(l+1)], because the Run stub applies it as
    one contiguous stripe, and every root-to-node path into another
    internal node costs [Cost.visit_price], the recursion's call there:
    a wide gate costs its {!Cost.priced} count. Without the visit term a
    CNOT-ladder or CZ-ring product was priced at its leaf MACs alone and
    kept, then ran 3-8x slower per price unit than the local leg. With the plain
    count a permutation (2ⁿ MACs) ties with any product costing 2ⁿ or
    more, so dnn's CNOT ladders fused into its rotation products, which
    then ran slower than the gates they replaced. A narrow gate runs on
    the local leg, so it costs the cheaper of that leg,
    [Cost.local_rate × 2ⁿ], and its Run ({!Cost.local_price} over
    {!Flat_gate.local_paths}), and fusion does not merge two such gates
    into a wider one that would need the Run.

    {!k_operations_iter} is the fixed-grouping baseline of Zulehner & Wille
    (DATE'19): every run of [k] consecutive ops is multiplied into one
    gate, regardless of cost, with the same product step. *)

type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  narrow_products : int;  (** products taken as 2×2 or 4×4 matrices *)
  macs_before : float;  (** Σ {!Cost.macs} (Eq. 5 MACs) of the input gates *)
  macs_after : float;   (** Σ {!Cost.macs} of the output gates *)
}

type gate =
  | Local of Flat_gate.local
  (** a gate given by its form: an op, or a product on at most two levels *)
  | Wide of Dd.medge           (** any other product, as its matrix DD *)

val to_dd : Dd.package -> n:int -> gate -> Dd.medge
(** The output gate's matrix DD (a form's built on the call). *)

val compile : Dd.package -> n:int -> threads:int -> gate -> Flat_gate.t
(** Compiles a gate for a pool of [threads]: a form to the local leg
    ({!Flat_gate.of_local}), a wide one to the Run or Algorithm 2,
    whichever its price favors ({!Flat_gate.compile}). *)

val dmav_aware :
  ?identity_price:float ->
  ?local_rate:float ->
  Dd.package ->
  n:int ->
  Circuit.op list ->
  gate list * stats
(** [identity_price] and [local_rate] (one rate for both supports)
    default to {!Cost.identity_price} and {!Cost.local_rate}; the
    calibration bench sweeps them. The stats count plain MACs whatever
    the price. *)

(** {1 Streaming forms}

    The same scans, handing each output gate to [emit] as soon as it is
    final (the flat phase compiles and runs it while the scan goes on),
    and calling [poll] before each input gate (the driver's cancellation
    poll, which may raise). {!dmav_aware} above is its scan with [emit]
    collecting. *)

val dmav_aware_iter :
  ?identity_price:float ->
  ?local_rate:float ->
  ?poll:(unit -> unit) ->
  Dd.package ->
  n:int ->
  emit:(gate -> unit) ->
  Circuit.op list ->
  stats

val k_operations_iter :
  ?poll:(unit -> unit) ->
  Dd.package ->
  n:int ->
  k:int ->
  emit:(gate -> unit) ->
  Circuit.op list ->
  stats
