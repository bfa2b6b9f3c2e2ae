(** FlatDD engine configuration. *)

type fusion_mode =
  | No_fusion
  | Dmav_aware          (** Algorithm 3, the paper's contribution *)
  | K_operations of int (** fixed-size DDMM grouping (DATE'19 baseline) *)

type conversion_policy =
  | Ewma_policy           (** monitor the DD size with β/ε (the default) *)
  | Convert_at of int     (** unconditionally convert after this gate index *)
  | Never_convert         (** stay in DD simulation (ablation / baseline) *)

type order_mode =
  | No_order      (** identity qubit order — byte-identical legacy behavior *)
  | Static_order  (** pre-simulation interaction-graph scoring pass *)

val order_name : order_mode -> string
(** ["none"] / ["static"] — the CLI/manifest spelling. *)

val order_of_name : string -> order_mode option

type precision =
  | F64  (** double precision — the default, byte-identical results *)
  | F32  (** float32 amplitude plane — half the bytes per flat-phase gate *)

val precision_name : precision -> string
(** ["f64"] / ["f32"] — the CLI/manifest spelling. *)

val precision_of_name : string -> precision option

type t = {
  threads : int;          (** total worker parallelism (≥ 1) *)
  beta : float;           (** EWMA smoothing, paper uses 0.9 *)
  epsilon : float;        (** conversion threshold, paper uses 2.0 *)
  fusion : fusion_mode;
  policy : conversion_policy;
  compact_every : int;    (** DD-package GC interval in gates; 0 = never *)
  trace : bool;           (** record the per-gate trace *)
  dense_dispatch : bool;
  (** When set, the DMAV engine's per-gate cost model also prices each
      unfused single-qubit gate on the dense direct-apply kernel
      ([Dense_kernel.single]) and may run it there instead of a DMAV
      multiplication. A two-qubit gate takes the local leg either way. Off by default so the stock DMAV phase stays
      bit-for-bit reproducible. *)
  order : order_mode;
  (** Qubit-order policy (`--order`). Results are always reported in the
      logical basis regardless of this setting. *)
  precision : precision;
  (** Amplitude-plane precision (`--precision`). [F32] routes the flat
      phase (and the dense reference engine) through the float32 storage
      kind; extracted amplitudes are widened back to f64. The DD phase and
      its ctable weights always stay f64. *)
}

val default : t
(** 1 thread, β = 0.9, ε = 2.0, no fusion, EWMA policy,
    compaction every 64 gates, no trace, no dense dispatch, no order
    optimization. *)

val with_threads : int -> t -> t
