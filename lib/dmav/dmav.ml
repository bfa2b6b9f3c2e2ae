(* The f64 DMAV kernels: [Dmav_generic.Make (Storage.F64)] — the C Run
   stub behind the paper's Assign/AssignCache traversals, with its
   [dmav.*] metrics. The types and traversals are re-exported so callers
   keep one name for the default precision. *)

include Dmav_generic.Make (Storage.F64)

type task = Dmav_generic.task = { node : Dd.mnode; start : int; weight : Cnum.t }

type exec_stats = Dmav_generic.exec_stats = {
  used_cache : bool;
  decision : Cost.decision;
  cache_hits : int;
  buffers_used : int;
}

let assign_rows = Dmav_generic.assign_rows
let assign_cols = Dmav_generic.assign_cols
