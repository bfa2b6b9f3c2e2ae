(* The vector bodies of the dense single-qubit kernel and the local leg
   (lib/complexnum/kernels_stubs.c): nanoseconds per amplitude at n = 16
   on one thread for every body this host has (2, 4 and 8 lanes, held by
   [Storage.Testing.with_lanes]), f64 and f32, per amplitude of the
   register whether the gate walks it or not (a gate under one control
   walks half). Each gate shape puts its support and control on or off
   index bits 0 and 1, which decide the loads: the
   4-lane body loads two groups at once when bit 0 is free, the 8-lane
   body four when bits 0 and 1 are, and both build their vectors from
   smaller pieces otherwise. The bodies alternate within every
   round, so drift in the host's clock hits them alike; the table takes
   each body's median over the rounds. *)

let n = 16
let rounds = 41
let reps = 8

(* A gate shape: a dense single-qubit gate on [target], or the local
   leg's full 2x2 ([major] < 0) or 4x4 on [major] and [minor]; either
   under the controls [ctl] (a list of qubits). *)
type shape =
  | Dense of { target : int; ctl : int list }
  | Local of { major : int; minor : int; ctl : int list }

let label shape =
  let ctl = function
    | [] -> ""
    | cs -> ", ctl " ^ String.concat " " (List.map (Printf.sprintf "q%d") cs)
  in
  match shape with
  | Dense { target; ctl = cs } -> Printf.sprintf "dense 2x2, q%d%s" target (ctl cs)
  | Local { major; minor; ctl = cs } when major < 0 ->
    Printf.sprintf "local 2x2, q%d%s" minor (ctl cs)
  | Local { major; minor; ctl = cs } ->
    Printf.sprintf "local 4x4 full, q%d q%d%s" major minor (ctl cs)

let shapes =
  [ Dense { target = 5; ctl = [] }; Dense { target = 1; ctl = [] }; Dense { target = 0; ctl = [] };
    Local { major = -1; minor = 5; ctl = [] }; Dense { target = 5; ctl = [ 9 ] };
    Local { major = -1; minor = 5; ctl = [ 9 ] }; Dense { target = 5; ctl = [ 0 ] };
    Local { major = -1; minor = 5; ctl = [ 0 ] }; Local { major = 9; minor = 5; ctl = [] };
    Local { major = 9; minor = 1; ctl = [] }; Local { major = 9; minor = 0; ctl = [] } ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Gates run as one domain runs them: [Dense_kernel]'s stripes, and a
   local gate as a one-part run. *)
module Rows (P : Storage.S) = struct
  module DK = Dense_kernel.Make (P)

  let time_shape shape =
    let rs = Random.State.make [| 7 |] in
    let apply =
      match shape with
      | Dense { target; ctl } ->
        let m = Gate.u3 0.3 1.1 2.3 in
        fun v -> DK.single ~n v m ~target ~controls:ctl
      | Local { major; minor; ctl } ->
        let d = if major < 0 then 2 else 4 in
        let u = Array.init (2 * d * d) (fun _ -> Random.State.float rs 2.0 -. 1.0) in
        let paths = (1 lsl (d * d)) - 1 in
        let support = (1 lsl minor) lor if major < 0 then 0 else 1 lsl major in
        fun v ->
          DK.local_part v u ~support ~controls:(Bits.all_masks ctl) ~paths ~split:0 ~part:0
    in
    let v =
      P.init (1 lsl n) (fun _ ->
          Cnum.make (Random.State.float rs 2.0 -. 1.0) (Random.State.float rs 2.0 -. 1.0))
    in
    let lanes = Storage.Testing.lanes in
    let samples = Array.make (List.length lanes) [] in
    for round = 1 to rounds do
      (* Alternate the order of the bodies from round to round. *)
      let order = if round land 1 = 0 then lanes else List.rev lanes in
      List.iter
        (fun l ->
           Storage.Testing.with_lanes l (fun () ->
               let t0 = Timer.now_ns () in
               for _ = 1 to reps do
                 apply v
               done;
               let dt = Int64.to_float (Int64.sub (Timer.now_ns ()) t0) in
               let k = List.length (List.filter (fun x -> x < l) lanes) in
               samples.(k) <- (dt /. float_of_int (reps * (1 lsl n))) :: samples.(k)))
        order
    done;
    Array.to_list (Array.map median samples)

  let rows prec =
    List.map
      (fun shape ->
         let ns = time_shape shape in
         let ratio =
           match ns with
           | [ _; four; eight ] -> Report.f2 (eight /. four)
           | _ -> "-"
         in
         (prec :: label shape :: List.map Report.f2 ns) @ [ ratio ])
      shapes
end

let run () =
  Report.section "Vector bodies: ns per amplitude at 2, 4 and 8 lanes";
  Report.table
    ~title:(Printf.sprintf "n = %d, one thread, median of %d rounds of %d gates" n rounds reps)
    ~header:
      ([ "prec"; "gate" ]
       @ List.map (fun l -> Printf.sprintf "%d lanes" l) Storage.Testing.lanes
       @ [ "8/4" ])
    (let module R64 = Rows (Storage.F64) in
     let module R32 = Rows (Storage.F32) in
     R64.rows "f64" @ R32.rows "f32");
  Report.note "host pick: %d lanes (Storage.dense_lanes)" Storage.dense_lanes
