(* The f64 dense kernel on a [State.t]: a thin adapter over
   [Dense_kernel.Make (Storage.F64)], which owns the checks and the C
   stripe calls. *)

module K = Dense_kernel.Make (Storage.F64)

let single ?pool st m ~target ~controls =
  K.single ?pool ~n:st.State.n st.State.amps m ~target ~controls

let two ?pool st m ~q_hi ~q_lo = K.two ?pool ~n:st.State.n st.State.amps m ~q_hi ~q_lo
let op ?pool st o = K.op ?pool ~n:st.State.n st.State.amps o

let circuit ?pool st (c : Circuit.t) =
  if c.Circuit.n <> st.State.n then invalid_arg "Apply.circuit: qubit count mismatch";
  K.circuit ?pool st.State.amps c

let run ?pool (c : Circuit.t) = State.of_buf c.Circuit.n (K.run ?pool c)
