(* The f64 DMAV kernels: [Dmav_generic.Make (Storage.F64)] — the C Run
   stub behind the paper's Assign/AssignCache traversals, with its
   [dmav.*] metrics. *)

include Dmav_generic.Make (Storage.F64)
