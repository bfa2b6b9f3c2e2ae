(** Gate fusion for the DMAV phase (paper §3.3).

    Both strategies take the gate matrices remaining after FlatDD's
    DD→array conversion and return a shorter list of (possibly fused)
    matrices whose product, applied in list order, equals the product of
    the input gates applied in list order.

    {!dmav_aware} is Algorithm 3: a greedy scan that fuses the incoming
    gate into the pending one (via DD matrix-matrix multiplication, DDMM)
    exactly when the fused gate's modeled DMAV cost is not more than the
    two gates' costs applied sequentially ([c_ip ≤ c_i + c_p]). The DDMM
    itself is ignored by the model, as in the paper: it builds DD nodes,
    never 2ⁿ-sized data.

    The modeled cost is {!Cost.priced_macs}, not the paper's plain path
    count: a path costs one MAC, except that a canonical identity node at
    level [l] costs [Cost.identity_price × 2^(l+1)], because the Run stub
    applies it as one contiguous stripe at about a quarter of the
    recursion's per-MAC time. With the plain count a permutation (2ⁿ
    MACs) ties with any product costing 2ⁿ or more, so dnn's CNOT ladders
    fused into its rotation products, which then ran slower than the
    gates they replaced.

    {!k_operations} is the fixed-grouping baseline of Zulehner & Wille
    (DATE'19): every run of [k] consecutive gates is multiplied into one
    matrix, regardless of cost. *)

type stats = {
  gates_in : int;
  gates_out : int;
  ddmm_calls : int;
  macs_before : float;  (** Σ {!Cost.mac_count} (Eq. 5 MACs) of the input gates *)
  macs_after : float;   (** Σ {!Cost.mac_count} of the output gates *)
}

val dmav_aware : ?identity_price:float -> Dd.package -> Dd.medge list -> Dd.medge list * stats
(** [identity_price] defaults to {!Cost.identity_price}; the calibration
    bench sweeps it. The stats count plain MACs whatever the price. *)

val k_operations : Dd.package -> k:int -> Dd.medge list -> Dd.medge list * stats
