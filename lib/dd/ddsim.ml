type trace_entry = {
  gate_index : int;
  gate_name : string;
  seconds : float;
  dd_size : int;
}

type result = {
  state : Dd.vedge;
  package : Dd.package;
  trace : trace_entry list;
  peak_nodes : int;
  peak_memory_bytes : int;
  timed_out : bool;
  gates_done : int;
  seconds : float;
}

let run ?package ?(trace = false) ?(compact_every = 64) ?time_limit (c : Circuit.t) =
  let p = match package with Some p -> p | None -> Dd.create () in
  let n = c.Circuit.n in
  let state = ref (Vec_dd.zero_state p n) in
  let entries = ref [] in
  let peak_nodes = ref n in
  let peak_mem = ref (Dd.memory_bytes p) in
  let t0 = Timer.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) *. 1e-9 in
  let timed_out = ref false in
  let i = ref 0 in
  let gates = Circuit.num_gates c in
  while !i < gates && not !timed_out do
    let op = c.Circuit.ops.(!i) in
    let (), dt =
      Timer.time (fun () ->
          let g = Mat_dd.of_op p ~n op in
          state := Dd.mv p g !state)
    in
    let size = Dd.vnode_count p !state in
    if size > !peak_nodes then peak_nodes := size;
    if trace then
      entries :=
        { gate_index = !i; gate_name = Circuit.op_name op; seconds = dt; dd_size = size }
        :: !entries;
    if compact_every > 0 && (!i + 1) mod compact_every = 0 then begin
      let m = Dd.memory_bytes p in
      if m > !peak_mem then peak_mem := m;
      Dd.compact p ~vroots:[ !state ] ~mroots:[]
    end;
    (match time_limit with
     | Some limit when elapsed () > limit -> timed_out := true
     | _ -> ());
    incr i
  done;
  let m = Dd.memory_bytes p in
  if m > !peak_mem then peak_mem := m;
  { state = !state;
    package = p;
    trace = List.rev !entries;
    peak_nodes = !peak_nodes;
    peak_memory_bytes = !peak_mem;
    timed_out = !timed_out;
    gates_done = !i;
    seconds = elapsed () }

let final_amplitudes r n = Vec_dd.to_buf r.package n r.state
