(* The f64 DMAV kernels: [Dmav_generic.Make (Storage.F64)] — the C Run
   stub behind the paper's Assign/AssignCache traversals — under this
   module's metrics. The types and traversals are re-exported so callers
   keep one name for the default precision. *)

module K = Dmav_generic.Make (Storage.F64)

type task = Dmav_generic.task = { node : Dd.mnode; start : int; weight : Cnum.t }

type exec_stats = Dmav_generic.exec_stats = {
  used_cache : bool;
  decision : Cost.decision;
  cache_hits : int;
  buffers_used : int;
}

let assign_rows = Dmav_generic.assign_rows
let assign_cols = Dmav_generic.assign_cols

(* Instrumentation is per kernel invocation (one gate application), never
   per MAC: the Run recursion stays untouched, so metrics cost nothing
   there. *)
let c_kernel_uncached = Obs.counter "dmav.kernel.uncached"
let c_kernel_cached = Obs.counter "dmav.kernel.cached"
let c_cache_hits = Obs.counter "dmav.cache.hits"
let c_buffers = Obs.counter "dmav.buffers"
let fc_macs_modeled = Obs.fcounter "dmav.macs.modeled"
let fc_macs_modeled_cached = Obs.fcounter "dmav.macs.modeled_cached"
let fc_macs_modeled_uncached = Obs.fcounter "dmav.macs.modeled_uncached"
let fc_macs_modeled_identity = Obs.fcounter "dmav.macs.modeled_identity"
let s_apply = Obs.span "dmav.apply"

type workspace = K.workspace

let workspace = K.workspace
let workspace_n = K.workspace_n
let free_buffers = K.free_buffers
let take = K.take
let give = K.give
let scrub_workspace = K.scrub_workspace

let apply_nocache p ~pool ~n root ~v ~w =
  Obs.incr c_kernel_uncached;
  K.apply_nocache p ~pool ~n root ~v ~w

let apply_cache ?workspace p ~pool ~n root ~v ~w =
  Obs.incr c_kernel_cached;
  let hits, n_buffers = K.apply_cache ?workspace p ~pool ~n root ~v ~w in
  if Obs.enabled () then begin
    Obs.add c_cache_hits hits;
    Obs.add c_buffers n_buffers
  end;
  (hits, n_buffers)

let apply_decided ?workspace:ws p ~pool ~n decision root ~v ~w =
  if Obs.enabled () then begin
    let t = float_of_int decision.Cost.threads_used in
    Obs.fadd fc_macs_modeled (Cost.modeled_macs decision);
    Obs.fadd fc_macs_modeled_cached (t *. decision.Cost.c2);
    Obs.fadd fc_macs_modeled_uncached (t *. decision.Cost.c1);
    Obs.fadd fc_macs_modeled_identity (Cost.identity_macs p ~n decision root)
  end;
  Obs.with_span s_apply (fun () ->
      if decision.Cost.cached then begin
        let hits, buffers = apply_cache ?workspace:ws p ~pool ~n root ~v ~w in
        { used_cache = true; decision; cache_hits = hits; buffers_used = buffers }
      end
      else begin
        apply_nocache p ~pool ~n root ~v ~w;
        { used_cache = false; decision; cache_hits = 0; buffers_used = 0 }
      end)

let apply ?workspace:ws p ~pool ~simd_width ~n root ~v ~w =
  let decision = Cost.decide p ~n ~threads:(Pool.size pool) ~simd_width root in
  apply_decided ?workspace:ws p ~pool ~n decision root ~v ~w
