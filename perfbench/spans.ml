(* The traced run's span record: one span per call the benchmark makes
   into the program, plus child spans built from the durations the
   program returns (phases, gates, queue wait). Kept in memory and
   written once when the run ends. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0 = root *)
  job : string;  (* "" outside a job *)
}

let on = ref false
let all : span list ref = ref []
let next = ref 0
let lock = Mutex.create ()

let fresh () =
  Mutex.protect lock (fun () ->
      incr next;
      !next)

let add ?(id = 0) ?(parent = 0) ?(job = "") name start stop =
  if !on then begin
    let id = if id = 0 then fresh () else id in
    Mutex.protect lock (fun () -> all := { id; name; start; stop; parent; job } :: !all)
  end

(* Time [f] as a span; [f] receives the span's id to parent its children. *)
let time ?parent ?job name f =
  let id = if !on then fresh () else 0 in
  let t0 = Unix.gettimeofday () in
  let r = f id in
  add ~id ?parent ?job name t0 (Unix.gettimeofday ());
  r

(* Lay returned durations out back to back from [start] as children of
   [parent]; returns where the last one ended. *)
let lay ~parent ~job start durations =
  List.fold_left
    (fun t (name, d) ->
       add ~parent ~job name t (t +. d);
       t +. d)
    start durations

(* Self time per span name: duration minus the time its children cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
       Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    !all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
       let self =
         Float.max 0.0
           (s.stop -. s.start -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0)
       in
       let c, t = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0) in
       Hashtbl.replace by_name s.name (c + 1, t +. self))
    !all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let write path =
  let oc = open_out path in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !all in
  output_string oc "{\"spans\":[\n";
  List.iteri
    (fun i s ->
       if i > 0 then output_string oc ",\n";
       Printf.fprintf oc
         "{\"id\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,\"job\":%S}" s.id
         s.name (s.start -. t0) (s.stop -. t0) s.parent s.job)
    (List.rev !all);
  output_string oc "\n],\"self_s\":{";
  List.iteri
    (fun i (name, (count, self)) ->
       if i > 0 then output_string oc ",";
       Printf.fprintf oc "\n%S:{\"count\":%d,\"self_s\":%.9f}" name count self)
    (self_times ());
  output_string oc "\n}}\n";
  close_out oc
