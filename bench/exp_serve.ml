(* Warm-state experiment: the flatdd_serve reuse path measured head to
   head against cold per-job construction.

   Each trial runs the same mixed job stream two ways over one pool:
   cold — every job builds its own DD package and DMAV workspace, the
   flatdd_batch behavior — and warm — jobs draw handles from a Warm
   cache the way the daemon's runner does (including the cross-tenant
   scrub, to price the privacy rule). The p0 of every job is checked
   cold-vs-warm as it runs: the speedup is only interesting because the
   bytes are identical. *)

let stream () =
  let mk i (family, n, gates, tenant) =
    let seed = Rng.derive 7 i in
    (tenant, Suite.generate ?gates ~seed family ~n)
  in
  List.mapi mk
    [ (Suite.Qft, 12, None, "a");
      (Suite.Supremacy, 12, Some 200, "a");
      (Suite.Ghz, 12, None, "b");
      (Suite.Qft, 12, None, "b");
      (Suite.Supremacy, 12, Some 240, "a");
      (Suite.Bv, 12, None, "b");
      (Suite.Qft, 12, None, "a");
      (Suite.Supremacy, 12, Some 160, "b") ]

let p0 (r : Driver.result) =
  match r.Driver.final with
  | Engine.Flat_state buf -> Cnum.norm2 (Buf.get buf 0)
  | Engine.Dd_state { package; edge } -> Cnum.norm2 (Dd.vamplitude package edge 0)

let run () =
  Report.section "Serve warm-state reuse (cold vs warm engine construction)";
  let jobs = stream () in
  Pool.with_pool Workloads.threads_default (fun pool ->
      let cfg = Config.default in
      let cold () = List.map (fun (_, c) -> p0 (Driver.run ~pool cfg c)) jobs in
      let warm () =
        let w = Warm.create ~capacity:2 () in
        let out =
          List.map
            (fun (tenant, (c : Circuit.t)) ->
               let h = Warm.acquire w ~tenant ~n:c.Circuit.n () in
               let r =
                 Driver.run ~pool ~package:h.Warm.package ~workspace:h.Warm.workspace cfg c
               in
               let v = p0 r in
               Warm.release w h;
               v)
            jobs
        in
        Warm.drop_all w;
        out
      in
      (* Warm must be a pure optimization: identical fingerprints. *)
      let reference = cold () in
      let check = warm () in
      if not (List.for_all2 Float.equal reference check) then
        failwith "exp_serve: warm p0 diverged from cold";
      let time f =
        let best = ref infinity in
        for _ = 1 to 3 do
          let _, dt = Timer.time f in
          if dt < !best then best := dt
        done;
        !best
      in
      let t_cold = time (fun () -> ignore (cold ())) in
      let t_warm = time (fun () -> ignore (warm ())) in
      Report.table ~title:"8-job stream, 2 tenants, best of 3"
        ~header:[ "variant"; "seconds"; "jobs/s"; "speedup" ]
        [ [ "cold (per-job alloc)";
            Printf.sprintf "%.3f" t_cold;
            Printf.sprintf "%.1f" (float_of_int (List.length jobs) /. t_cold);
            "1.00x" ];
          [ "warm (serve reuse)";
            Printf.sprintf "%.3f" t_warm;
            Printf.sprintf "%.1f" (float_of_int (List.length jobs) /. t_warm);
            Printf.sprintf "%.2fx" (t_cold /. t_warm) ] ])
