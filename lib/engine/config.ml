type fusion_mode =
  | No_fusion
  | Dmav_aware
  | K_operations of int

type conversion_policy =
  | Ewma_policy
  | Convert_at of int
  | Never_convert

(* Qubit-order policy (ISSUE 8). [No_order] keeps the identity order —
   every fingerprint byte-identical to the pre-order codebase. [Static_order]
   runs Order.static_order once before simulation. *)
type order_mode =
  | No_order
  | Static_order

let order_name = function
  | No_order -> "none"
  | Static_order -> "static"

let order_of_name = function
  | "none" -> Some No_order
  | "static" -> Some Static_order
  | _ -> None

(* Numeric precision of the flat amplitude plane (ISSUE 10). [F64] is the
   default and keeps every fingerprint byte-identical to the pre-storage
   refactor; [F32] halves the bytes streamed per flat-phase gate at a
   bounded accuracy cost (stores round to nearest float32). The DD phase
   always computes in f64. *)
type precision = F64 | F32

let precision_name = function F64 -> "f64" | F32 -> "f32"

let precision_of_name = function
  | "f64" -> Some F64
  | "f32" -> Some F32
  | _ -> None

type t = {
  threads : int;
  beta : float;
  epsilon : float;
  fusion : fusion_mode;
  policy : conversion_policy;
  compact_every : int;
  trace : bool;
  dense_dispatch : bool;
  order : order_mode;
  precision : precision;
}

let default =
  { threads = 1;
    beta = 0.9;
    epsilon = 2.0;
    fusion = No_fusion;
    policy = Ewma_policy;
    compact_every = 64;
    trace = false;
    dense_dispatch = false;
    order = No_order;
    precision = F64 }

let with_threads threads t = { t with threads }
