(* The f64 DMAV kernels: [Dmav_generic.Make (Storage.F64)] — the C Run
   stub behind the paper's Assign/AssignCache traversals, with its
   [dmav.*] metrics. The stats type is re-exported so callers keep one
   name for the default precision. *)

include Dmav_generic.Make (Storage.F64)

type exec_stats = Dmav_generic.exec_stats = {
  used_cache : bool;
  decision : Cost.decision;
  cache_hits : int;
  buffers_used : int;
}
