(* The whole-program concurrency analysis behind `qcs_lint --program`.

   Over the Callgraph model this module computes, purely syntactically:

   - the cross-module call graph (resolved references between top-level
     definitions, including closures escaping as higher-order arguments);
   - the parallel-reachable set: everything transitively reachable from
     closures handed to Pool/Sched (or given as their optional
     parameters' defaults), `Thread.create` and `Domain.spawn` — the code
     that can run off the main thread;
   - a lock environment threaded through the walk: `Mutex.lock`/`unlock`
     sequences, `Mutex.protect`, and the repo's `locked t f`-style
     combinators all push/pop symbolic lock keys, so "helper called
     under the lock" is guarded through the call graph, not just
     lexically.

   Three inter-procedural rules run over that model:

   unguarded-shared-state — module-level refs/Hashtbls/Queues/Buffers
     (or mutable state reached through parameters and record fields)
     mutated from parallel-reachable code while no lock key is held.
     Arrays, Bigarrays and record-field stores are deliberately out of
     scope: disjoint-index parallelism over flat arrays is the paper's
     core technique and FLATDD_CHECK's runtime domain.

   lock-order — the acquisition graph: an edge a -> b whenever b is
     acquired (directly or via a callee's transitive acquisitions) while
     a is held. Any edge on a cycle is a potential deadlock. A loop that
     acquires an indexed lock family (stripe locks) without releasing
     inside the loop gets a warning: that pattern is only safe when every
     acquirer sorts the indices the same way.

   arena-epoch — a let-bound Dd edge is a packed index into the arena;
     `compact` (or anything that may transitively call it) can
     remap it. Using such a cached edge after a may-compact call without
     re-validating is flagged.

   Everything is a conservative approximation over an untyped parse tree;
   known imprecision is documented in DESIGN.md §10. False positives are
   handled by inline suppressions, lint.allow, or the lint.baseline
   ratchet. *)

open Parsetree
module SM = Map.Make (String)

let rule_unguarded = "unguarded-shared-state"
let rule_lock_order = "lock-order"
let rule_epoch = "arena-epoch"

let rules =
  [ ( rule_unguarded,
      Lint.Error,
      "module-level mutable state touched from parallel-reachable code with no \
       lock held and no Atomic" );
    ( rule_lock_order,
      Lint.Error,
      "cycle in the mutex acquisition-order graph (plus indexed lock families \
       acquired in loops)" );
    ( rule_epoch,
      Lint.Error,
      "cached Dd edge used across a call that may compact/reorder the arena, \
       without epoch re-validation" ) ]

let rule_names = List.map (fun (n, _, _) -> n) rules

(* --- name tables ------------------------------------------------------ *)

(* Closure arguments to these run on other domains/threads. Names are the
   fully-qualified def names ((wrapped false): module = file). *)
let parallel_entries =
  [ "Pool.run"; "Pool.parallel_for"; "Pool.parallel_for_ranges"; "Sched.create" ]

(* Stdlib spawns, matched on the written name (no def in the model). *)
let spawn_entries = [ "Thread.create"; "Domain.spawn"; "Domain.spawn_on" ]

let protect_markers = [ "protect"; "locked"; "with_lock"; "with_mutex" ]

(* (function, index of the mutated structure among positional args) *)
let mutators =
  [ ("Hashtbl.replace", 0); ("Hashtbl.add", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0); ("Hashtbl.filter_map_inplace", 1);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.take_opt", 0); ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_bytes", 0);
    ("Buffer.add_buffer", 0); ("Buffer.add_substring", 0); ("Buffer.clear", 0);
    ("Buffer.reset", 0); ("Buffer.truncate", 0) ]

(* Read-only table/queue traffic: racy only against a concurrent mutator,
   so it is a warning and only on resolved module-level structures. *)
let readers =
  [ ("Hashtbl.find", 0); ("Hashtbl.find_opt", 0); ("Hashtbl.find_all", 0);
    ("Hashtbl.mem", 0); ("Hashtbl.length", 0); ("Hashtbl.iter", 1);
    ("Hashtbl.fold", 1); ("Queue.peek", 0); ("Queue.peek_opt", 0);
    ("Queue.length", 0); ("Queue.is_empty", 0); ("Queue.iter", 1);
    ("Queue.fold", 2) ]

(* Dd API calls whose result is a packed edge (arena index). *)
let dd_edge_fns =
  [ "make_vnode"; "make_mnode"; "vterm_edge"; "mterm_edge"; "munit";
    "vadd"; "madd"; "mv"; "mm"; "vscale"; "mscale"; "v0"; "v1";
    "mchild"; "medge_child" ]

let compact_seeds = [ "Dd.compact" ]

(* --- small helpers ---------------------------------------------------- *)

let iter_exprs on e =
  let it =
    { Ast_iterator.default_iterator with
      Ast_iterator.expr =
        (fun self e ->
           on e;
           Ast_iterator.default_iterator.Ast_iterator.expr self e) }
  in
  it.Ast_iterator.expr it e

let is_fun_lit e =
  match (Callgraph.strip_constraint e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* A stable symbolic name for a lock expression: [t.mutex],
   [Array.get(t.stripes,i).s_lock], ... Unknown shapes render as "?" and
   never generate order edges (but still act as guards). *)
let rec raw_key e =
  match (Callgraph.strip_constraint e).pexp_desc with
  | Pexp_ident _ -> (match Callgraph.ident_of e with Some id -> id | None -> "?")
  | Pexp_field (b, { txt; _ }) ->
    let f =
      match Callgraph.lid_to_string txt with
      | Some s -> Callgraph.last_component s
      | None -> "?"
    in
    raw_key b ^ "." ^ f
  | Pexp_apply (f, args) ->
    let h = match Callgraph.ident_of f with Some id -> id | None -> "?" in
    h ^ "(" ^ String.concat "," (List.map (fun (_, a) -> raw_key a) args) ^ ")"
  | Pexp_constant (Pconst_integer (s, _)) -> s
  | _ -> "?"

let known k = not (String.contains k '?')
let indexed k = String.contains k '('

type aq = { a_key : string; a_try : bool }

type lkind =
  | LMut   (* created in this scope: Hashtbl/Queue/Buffer.create, Atomic *)
  | LRef   (* created in this scope: ref *)
  | LVar   (* parameter or other local binding *)

type evar = EFresh | EStale of string

type call = {
  c_from : string;
  c_to : string;
  c_guards : string list;  (* every held key, incl. try-locks/unknowns *)
  c_srcs : string list;    (* held keys eligible as order-edge sources *)
}

type result = {
  r_findings : (Lint.finding * string) list;
      (** finding plus the enclosing definition (the baseline symbol) *)
  r_stats : (string * int) list;
  r_par : string list;  (** the parallel-reachable set, sorted *)
}

(* --- baseline ratchet -------------------------------------------------- *)

let baseline_key (f, sym) = Printf.sprintf "%s %s %s" f.Lint.rule f.Lint.file sym

let load_baseline path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None else Some l)

let render_baseline keyed =
  let keys = List.sort compare (List.map baseline_key keyed) in
  String.concat ""
    ([ "# qcs_lint --program baseline: one `<rule> <file> <symbol>` line per\n";
       "# accepted finding (multiset). CI fails on findings not covered here;\n";
       "# regenerate with `qcs_lint --program --write-baseline` and ratchet\n";
       "# this file down, never up, in ordinary PRs.\n" ]
     @ List.map (fun k -> k ^ "\n") keys)

(* Multiset difference: findings whose (rule, file, symbol) count exceeds
   the baseline's count for that key. *)
let new_against_baseline ~baseline keyed =
  let budget = Hashtbl.create 64 in
  List.iter
    (fun k ->
       Hashtbl.replace budget k (1 + Option.value ~default:0 (Hashtbl.find_opt budget k)))
    baseline;
  List.filter
    (fun kf ->
       let k = baseline_key kf in
       match Hashtbl.find_opt budget k with
       | Some n when n > 0 ->
         Hashtbl.replace budget k (n - 1);
         false
       | _ -> true)
    keyed

(* --- the analysis ------------------------------------------------------ *)

type env = {
  held : aq list;  (* innermost acquisition first *)
  par : bool;      (* inside a closure handed to a parallel entry *)
  locals : lkind SM.t;
  opens : string list;
  def : Callgraph.def;
  mname : string;  (* file module, used to qualify lock keys *)
  phase : int;     (* 1 = collect graph facts, 2 = emit findings *)
  edge_vars : (string, evar) Hashtbl.t;  (* per-def cached-Dd-edge state *)
}

let analyze ?(allow = []) ?(only = rule_names) (model : Callgraph.t) =
  let findings = ref [] in
  let emit ~rule ~sev ~file ~sym loc msg =
    if List.mem rule only then begin
      let p = loc.Location.loc_start in
      findings :=
        ( { Lint.rule; severity = sev; file; line = p.Lexing.pos_lnum;
            col = p.Lexing.pos_cnum - p.Lexing.pos_bol; message = msg },
          sym )
        :: !findings
    end
  in
  let emit_env env ~rule ~sev loc msg =
    emit ~rule ~sev ~file:env.def.Callgraph.d_path ~sym:env.def.Callgraph.d_name
      loc msg
  in

  (* Phase-1 accumulators. *)
  let calls = ref [] in
  let acquires : (string, string list ref) Hashtbl.t = Hashtbl.create 128 in
  let par_roots : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let ru_seeds : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* (held, acquired) -> witness (file, line, symbol) *)
  let oedges : (string * string, string * int * string) Hashtbl.t =
    Hashtbl.create 128
  in

  (* Oracles, filled between the phases. *)
  let par_set = ref (Hashtbl.create 0) in
  let ru_set = ref (Hashtbl.create 0) in
  let maycomp = ref (Hashtbl.create 0) in

  let opens_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun f -> Hashtbl.replace tbl f.Callgraph.f_path f.Callgraph.f_opens)
      model.Callgraph.files;
    fun path -> Option.value ~default:[] (Hashtbl.find_opt tbl path)
  in

  let resolve env n =
    if (not (String.contains n '.')) && SM.mem n env.locals then None
    else
      Callgraph.resolve model ~modpath:env.def.Callgraph.d_modpath
        ~opens:env.opens n
  in
  let key env m = env.mname ^ ":" ^ raw_key m in

  let mark_root env (d : Callgraph.def) =
    Hashtbl.replace par_roots d.Callgraph.d_name ();
    if env.held = [] then Hashtbl.replace ru_seeds d.Callgraph.d_name ()
  in

  let on_call env (d : Callgraph.def) =
    if env.phase = 1 then begin
      calls :=
        { c_from = env.def.Callgraph.d_name;
          c_to = d.Callgraph.d_name;
          c_guards = List.map (fun a -> a.a_key) env.held;
          c_srcs =
            List.filter_map
              (fun a -> if a.a_try || not (known a.a_key) then None else Some a.a_key)
              env.held }
        :: !calls;
      if env.par then mark_root env d
    end
  in

  let add_order_edge env ~from ~to_ loc =
    if not (Hashtbl.mem oedges (from, to_)) then
      Hashtbl.replace oedges (from, to_)
        ( env.def.Callgraph.d_path,
          loc.Location.loc_start.Lexing.pos_lnum,
          env.def.Callgraph.d_name )
  in

  let acquire env k loc =
    if env.phase = 1 then begin
      if known k then begin
        let l =
          match Hashtbl.find_opt acquires env.def.Callgraph.d_name with
          | Some l -> l
          | None ->
            let l = ref [] in
            Hashtbl.replace acquires env.def.Callgraph.d_name l;
            l
        in
        l := k :: !l
      end;
      List.iter
        (fun h ->
           if (not h.a_try) && known h.a_key && known k then
             add_order_edge env ~from:h.a_key ~to_:k loc)
        env.held
    end
  in

  let push env a = { env with held = a :: env.held } in
  let pop env k =
    let rec go = function
      | [] -> []
      | h :: t when h.a_key = k -> t
      | h :: t -> h :: go t
    in
    { env with held = go env.held }
  in

  let unguarded env =
    env.phase = 2 && env.held = []
    && (env.par || Hashtbl.mem !ru_set env.def.Callgraph.d_name)
  in

  (* --- rule bodies (phase 2) --- *)

  let in_par_phrase env =
    if env.par then "inside a closure running on the pool"
    else "in parallel-reachable code"
  in

  let check_ref_write env a loc =
    if unguarded env then
      match Callgraph.ident_of (Callgraph.strip_constraint a) with
      | Some x when not (SM.mem x env.locals) ->
        (match resolve env x with
         | Some d when d.Callgraph.d_kind = Callgraph.Mutable Callgraph.Ref ->
           emit_env env ~rule:rule_unguarded ~sev:Lint.Error loc
             (Printf.sprintf
                "write to module-level ref %s %s with no lock held; make it an \
                 Atomic or guard it with its owning mutex"
                d.Callgraph.d_name (in_par_phrase env))
         | _ -> ())
      | _ -> ()
  in
  let check_ref_read env a loc =
    if unguarded env then
      match Callgraph.ident_of (Callgraph.strip_constraint a) with
      | Some x when not (SM.mem x env.locals) ->
        (match resolve env x with
         | Some d when d.Callgraph.d_kind = Callgraph.Mutable Callgraph.Ref ->
           emit_env env ~rule:rule_unguarded ~sev:Lint.Warning loc
             (Printf.sprintf
                "unsynchronized read of module-level ref %s %s; racy against \
                 writers — publish the value through an Atomic"
                d.Callgraph.d_name (in_par_phrase env))
         | _ -> ())
      | _ -> ()
  in
  let check_mutation env fn target loc =
    if unguarded env then begin
      let t = Callgraph.strip_constraint target in
      let flag what =
        emit_env env ~rule:rule_unguarded ~sev:Lint.Error loc
          (Printf.sprintf
             "%s on %s %s with no lock held; Hashtbl/Queue/Buffer are not \
              domain-safe — guard with the owning mutex or use a structure \
              created inside the closure"
             fn what (in_par_phrase env))
      in
      match t.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } when SM.mem x env.locals ->
        if SM.find x env.locals <> LMut then
          flag (Printf.sprintf "%s (not created in this scope)" x)
      | Pexp_ident _ ->
        (match Callgraph.ident_of t with
         | Some n ->
           (match resolve env n with
            | Some d when
                (match d.Callgraph.d_kind with
                 | Callgraph.Mutable
                     (Callgraph.Table | Callgraph.Queue_ | Callgraph.Buffer_) ->
                   true
                 | _ -> false) ->
              flag (Printf.sprintf "module-level %s" d.Callgraph.d_name)
            | Some _ -> ()
            | None -> flag n)
         | None -> flag "a shared structure")
      | Pexp_field _ -> flag (Printf.sprintf "shared field %s" (raw_key t))
      | _ -> ()
    end
  in
  let check_read env fn target loc =
    if unguarded env then
      match Callgraph.ident_of (Callgraph.strip_constraint target) with
      | Some n when
          not (String.contains n '.' = false && SM.mem n env.locals) ->
        (match resolve env n with
         | Some d when
             (match d.Callgraph.d_kind with
              | Callgraph.Mutable
                  (Callgraph.Table | Callgraph.Queue_ | Callgraph.Buffer_) ->
                true
              | _ -> false) ->
           emit_env env ~rule:rule_unguarded ~sev:Lint.Warning loc
             (Printf.sprintf
                "unlocked %s of module-level %s %s; races with concurrent \
                 mutation — take the owning mutex around the read"
                fn d.Callgraph.d_name (in_par_phrase env))
         | _ -> ())
      | _ -> ()
  in

  (* arena-epoch helpers; disabled inside lib/dd (the implementation owns
     its own epochs). *)
  let epoch_on env = env.phase = 2
    && not (String.starts_with ~prefix:"lib/dd/" env.def.Callgraph.d_path)
  in
  let is_edge_maker h =
    match Callgraph.ident_of h with
    | Some n ->
      String.length n > 3
      && String.sub n 0 3 = "Dd."
      && List.mem (Callgraph.last_component n) dd_edge_fns
    | None -> false
  in
  let epoch_mention env x loc =
    if epoch_on env then
      match Hashtbl.find_opt env.edge_vars x with
      | Some (EStale via) ->
        emit_env env ~rule:rule_epoch ~sev:Lint.Error loc
          (Printf.sprintf
             "Dd edge cached in %s is used after a call to %s, which may \
              compact or reorder the arena and remap the edge; re-read it \
              from the package or re-validate against Dd.epoch"
             x via);
        (* one finding per staleness event, not per use *)
        Hashtbl.replace env.edge_vars x EFresh
      | _ -> ()
  in
  let epoch_call env callee_name resolved args =
    if epoch_on env then begin
      let resolved_name =
        match resolved with Some d -> d.Callgraph.d_name | None -> callee_name
      in
      if Callgraph.last_component resolved_name = "epoch"
         && String.length resolved_name > 3
         && String.sub resolved_name 0 3 = "Dd."
      then
        Hashtbl.iter (fun x _ -> Hashtbl.replace env.edge_vars x EFresh)
          (Hashtbl.copy env.edge_vars)
      else if
        List.mem resolved_name compact_seeds
        || Hashtbl.mem !maycomp resolved_name
      then begin
        (* Idents appearing in the call keep their freshness: they were
           handed to the compactor (e.g. as roots) knowingly. *)
        let mentioned = Hashtbl.create 8 in
        List.iter
          (fun (_, a) ->
             iter_exprs
               (fun e ->
                  match e.pexp_desc with
                  | Pexp_ident { txt = Longident.Lident x; _ } ->
                    Hashtbl.replace mentioned x ()
                  | _ -> ())
               a)
          args;
        Hashtbl.iter
          (fun x st ->
             if st = EFresh && not (Hashtbl.mem mentioned x) then
               Hashtbl.replace env.edge_vars x (EStale resolved_name))
          (Hashtbl.copy env.edge_vars)
      end
    end
  in

  (* Indexed lock family acquired inside a loop body without matching
     releases (e.g. per-stripe locks taken in one sweep). Safe only under a
     global ascending-order convention, so it gets a warning. *)
  let loop_check env loc body =
    if env.phase = 2 then begin
      let locks = ref [] and unlocks = ref 0 in
      iter_exprs
        (fun e ->
           match e.pexp_desc with
           | Pexp_apply (f, [ (_, m) ]) ->
             (match Callgraph.ident_of f with
              | Some "Mutex.lock" -> locks := key env m :: !locks
              | Some "Mutex.unlock" -> incr unlocks
              | _ -> ())
           | _ -> ())
        body;
      if List.length !locks > !unlocks && List.exists indexed !locks then
        emit_env env ~rule:rule_lock_order ~sev:Lint.Warning loc
          "loop acquires an indexed lock family without releasing inside the \
           loop; this is deadlock-free only if every acquirer takes the \
           indices in the same (sorted) order — document or restructure"
    end
  in

  (* --- the walker --- *)

  let local_kind rhs =
    match (Callgraph.strip_constraint rhs).pexp_desc with
    | Pexp_apply (h, _) ->
      (match Callgraph.ident_of h with
       | Some ("Hashtbl.create" | "Queue.create" | "Buffer.create" | "Atomic.make") ->
         LMut
       | Some ("ref" | "Stdlib.ref") -> LRef
       | _ -> LVar)
    | _ -> LVar
  in
  let bind_pat env p =
    List.fold_left
      (fun acc x -> { acc with locals = SM.add x LVar acc.locals })
      env (Callgraph.pat_vars p)
  in

  (* Keys unlocked by a [Fun.protect ~finally:(fun () -> Mutex.unlock m)]
     expression: once such an expression has been evaluated, those
     mutexes are released for whatever follows. This is the idiom the
     node_store slot source uses — lock, protect a critical section, keep
     going unlocked. *)
  let protect_releases env e =
    match (Callgraph.strip_constraint e).pexp_desc with
    | Pexp_apply (f, args) when Callgraph.ident_of f = Some "Fun.protect" ->
      List.concat_map
        (fun (l, a) ->
           if l <> Asttypes.Labelled "finally" then []
           else begin
             let ks = ref [] in
             iter_exprs
               (fun e' ->
                  match e'.pexp_desc with
                  | Pexp_apply (g, [ (_, m) ])
                    when Callgraph.ident_of g = Some "Mutex.unlock" ->
                    ks := key env m :: !ks
                  | _ -> ())
               a;
             !ks
           end)
        args
    | _ -> []
  in

  let rec walk env e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
             (match
                ( Callgraph.pat_name vb.pvb_pat,
                  (Callgraph.strip_constraint vb.pvb_expr).pexp_desc )
              with
              | Some x, Pexp_apply (h, _) when epoch_on acc && is_edge_maker h ->
                Hashtbl.replace acc.edge_vars x EFresh
              | _ -> ());
             walk acc vb.pvb_expr;
             let acc =
               List.fold_left pop acc (protect_releases acc vb.pvb_expr)
             in
             match Callgraph.pat_name vb.pvb_pat with
             | Some x ->
               { acc with locals = SM.add x (local_kind vb.pvb_expr) acc.locals }
             | None -> bind_pat acc vb.pvb_pat)
          env vbs
      in
      walk env' body
    | Pexp_sequence (a, b) ->
      walk env a;
      walk (seq_effect env a) b
    | Pexp_apply (f, args) -> walk_apply env e f args
    | Pexp_ident _ -> ident_ref env e
    | Pexp_fun (lbl, dflt, p, body) ->
      (* A parallel entry's optional closure parameter runs where a
         passed one would: [Sched.create ?(runner = default_runner)]. *)
      (match lbl, dflt with
       | Optional _, Some dv
         when List.mem env.def.Callgraph.d_name parallel_entries ->
         walk_entry_arg env dv
       | _ -> Option.iter (walk env) dflt);
      walk (bind_pat env p) body
    | Pexp_function cases -> walk_cases env cases
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      walk env s;
      walk_cases env cases
    | Pexp_ifthenelse (c, t, el) ->
      walk env c;
      let envt =
        match try_lock_key env c with
        | Some k -> push env { a_key = k; a_try = true }
        | None -> env
      in
      walk envt t;
      Option.iter (walk env) el
    | Pexp_while (c, b) ->
      walk env c;
      loop_check env e.pexp_loc b;
      walk env b
    | Pexp_for (p, lo, hi, _, b) ->
      walk env lo;
      walk env hi;
      loop_check env e.pexp_loc b;
      walk (bind_pat env p) b
    | Pexp_open (od, b) ->
      let env =
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } ->
          (match Callgraph.lid_to_string txt with
           | Some o -> { env with opens = o :: env.opens }
           | None -> env)
        | _ -> env
      in
      walk env b
    | Pexp_newtype (_, b) -> walk env b
    | Pexp_constraint (b, _) -> walk env b
    | _ -> walk_children env e

  and walk_children env e =
    let it =
      { Ast_iterator.default_iterator with
        Ast_iterator.expr = (fun _ e' -> walk env e') }
    in
    Ast_iterator.default_iterator.Ast_iterator.expr it e

  and walk_cases env cases =
    List.iter
      (fun c ->
         let env' = bind_pat env c.pc_lhs in
         Option.iter (walk env') c.pc_guard;
         walk env' c.pc_rhs)
      cases

  and walk_args env args = List.iter (fun (_, a) -> walk env a) args

  (* The lock effect of one statement in a sequence, applied to what
     follows it. [if Mutex.try_lock l then () else (... Mutex.lock l)]
     leaves l held on both paths (a contention-counting lock). *)
  and seq_effect env a =
    match (Callgraph.strip_constraint a).pexp_desc with
    | Pexp_apply (f, [ (_, m) ]) ->
      (match Callgraph.ident_of f with
       | Some "Mutex.lock" -> push env { a_key = key env m; a_try = false }
       | Some "Mutex.unlock" -> pop env (key env m)
       | _ -> env)
    | Pexp_ifthenelse (c, _, _) ->
      (match try_lock_key env c with
       | Some k -> push env { a_key = k; a_try = true }
       | None -> env)
    | _ -> List.fold_left pop env (protect_releases env a)

  and try_lock_key env c =
    match (Callgraph.strip_constraint c).pexp_desc with
    | Pexp_apply (f, [ (_, m) ]) when Callgraph.ident_of f = Some "Mutex.try_lock" ->
      Some (key env m)
    | _ -> None

  and ident_ref env e =
    match Callgraph.ident_of e with
    | None -> ()
    | Some n ->
      if (not (String.contains n '.')) && SM.mem n env.locals then
        epoch_mention env n e.pexp_loc
      else (
        match resolve env n with
        | Some d when d.Callgraph.d_kind = Callgraph.Func -> on_call env d
        | _ -> ())

  and walk_apply env e f args =
    let loc = e.pexp_loc in
    match Callgraph.ident_of f with
    | Some "Mutex.lock" ->
      (match args with
       | [ (_, m) ] -> acquire env (key env m) loc
       | _ -> ());
      walk_args env args
    | Some ("Mutex.try_lock" | "Mutex.unlock") -> walk_args env args
    | Some "Fun.protect" ->
      (* Not a lock guard by itself. The body runs first and the finally
         closure last, so walk in that order: the canonical
         [Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) body]
         keeps [body] guarded. *)
      let fin, rest =
        List.partition
          (fun (l, _) -> l = Asttypes.Labelled "finally")
          args
      in
      walk_args env rest;
      walk_args env fin
    | Some n when List.mem (Callgraph.last_component n) protect_markers ->
      walk_combinator env n args loc
    | Some ":=" ->
      (match args with
       | [ (_, l); (_, r) ] ->
         check_ref_write env l loc;
         walk env r
       | _ -> walk_args env args)
    | Some ("incr" | "decr") ->
      (match args with
       | [ (_, a) ] -> check_ref_write env a loc
       | _ -> walk_args env args)
    | Some "!" ->
      (match args with
       | [ (_, a) ] ->
         check_ref_read env a loc;
         (* still walk: [!x] where x is an expression *)
         (match (Callgraph.strip_constraint a).pexp_desc with
          | Pexp_ident _ -> ()
          | _ -> walk env a)
       | _ -> walk_args env args)
    | Some n when List.mem_assoc n mutators ->
      let idx = List.assoc n mutators in
      (match List.nth_opt args idx with
       | Some (_, t) -> check_mutation env n t loc
       | None -> ());
      walk_args env args
    | Some n when List.mem_assoc n readers ->
      let idx = List.assoc n readers in
      (match List.nth_opt args idx with
       | Some (_, t) -> check_read env n t loc
       | None -> ());
      walk_args env args
    | Some n ->
      let callee = resolve env n in
      (match callee with Some d -> on_call env d | None -> ());
      epoch_call env n callee args;
      let is_entry =
        List.mem n spawn_entries
        || (match callee with
            | Some d -> List.mem d.Callgraph.d_name parallel_entries
            | None -> false)
      in
      if is_entry then List.iter (fun (_, a) -> walk_entry_arg env a) args
      else walk_args env args
    | None ->
      walk env f;
      walk_args env args

  (* An argument handed to a parallel entry: a closure literal is walked
     as pool code, a named or partially applied function becomes a
     parallel root. *)
  and walk_entry_arg env a =
    let a' = Callgraph.strip_constraint a in
    if is_fun_lit a' then walk { env with held = []; par = true } a'
    else
      match a'.pexp_desc with
      | Pexp_ident _ ->
        (match Callgraph.ident_of a' with
         | Some an when
             not
               ((not (String.contains an '.'))
                && SM.mem an env.locals) ->
           (match resolve env an with
            | Some d when d.Callgraph.d_kind = Callgraph.Func ->
              mark_root env d;
              on_call env d
            | _ -> walk env a)
         | _ -> walk env a)
      | Pexp_apply (h, hargs) ->
        (* partially applied root: Sched.create ~on_result:(deliver t) *)
        (match Callgraph.ident_of h with
         | Some hn ->
           (match resolve env hn with
            | Some d when d.Callgraph.d_kind = Callgraph.Func ->
              mark_root env d;
              on_call env d;
              walk_args env hargs
            | _ -> walk env a)
         | None -> walk env a)
      | _ -> walk env a

  (* [locked t (fun () -> ...)] / [Mutex.protect m f]: the closure body
     runs under a lock whose key we derive from the non-function
     argument ([t] locks t.mutex in every such combinator in this repo;
     argless combinators like obs's [locked f] key on the combinator
     itself). The combinator is also an ordinary call, so its transitive
     acquisitions flow through the call graph as well. *)
  and walk_combinator env n args loc =
    let non_fun =
      List.filter (fun (_, a) -> not (is_fun_lit (Callgraph.strip_constraint a))) args
    in
    let k =
      if n = "Mutex.protect" then
        match non_fun with
        | (_, m) :: _ -> key env m
        | [] -> env.mname ^ ":" ^ n
      else
        match non_fun with
        | (_, m) :: _ -> key env m ^ ".mutex"
        | [] -> env.mname ^ ":" ^ n
    in
    (match resolve env n with Some d -> on_call env d | None -> ());
    acquire env k loc;
    let env' = push env { a_key = k; a_try = false } in
    List.iter
      (fun (_, a) ->
         let a' = Callgraph.strip_constraint a in
         if is_fun_lit a' then walk env' a'
         else
           match Callgraph.ident_of a' with
           | Some an when
               not ((not (String.contains an '.')) && SM.mem an env.locals) ->
             (match resolve env an with
              | Some d when d.Callgraph.d_kind = Callgraph.Func ->
                (* [locked t helper]: helper runs under the lock *)
                on_call env' d
              | _ -> walk env a)
           | _ -> walk env a)
      args
  in

  let walk_def phase (d : Callgraph.def) =
    let env =
      { held = [];
        par = false;
        locals = SM.empty;
        opens = opens_of d.Callgraph.d_path;
        def = d;
        mname = (match d.Callgraph.d_modpath with m :: _ -> m | [] -> "?");
        phase;
        edge_vars = Hashtbl.create 8 }
    in
    walk env d.Callgraph.d_body
  in

  (* ---- phase 1: collect the graph ---- *)
  List.iter (walk_def 1) model.Callgraph.order;

  (* ---- closures over the collected graph ---- *)
  let succs_all = Hashtbl.create 256 in
  let succs_unguarded = Hashtbl.create 256 in
  let addsucc tbl k v =
    let l = match Hashtbl.find_opt tbl k with Some l -> l | None -> [] in
    if not (List.mem v l) then Hashtbl.replace tbl k (v :: l)
  in
  List.iter
    (fun c ->
       addsucc succs_all c.c_from c.c_to;
       if c.c_guards = [] then addsucc succs_unguarded c.c_from c.c_to)
    !calls;
  let closure seeds succs =
    let seen = Hashtbl.create 256 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        List.iter go (Option.value ~default:[] (Hashtbl.find_opt succs n))
      end
    in
    Hashtbl.iter (fun n () -> go n) seeds;
    seen
  in
  par_set := closure par_roots succs_all;
  ru_set := closure ru_seeds succs_unguarded;

  (* may-compact: reverse reachability to the compaction entry points *)
  let mc = Hashtbl.create 64 in
  List.iter
    (fun n -> if Hashtbl.mem model.Callgraph.defs n then Hashtbl.replace mc n ())
    compact_seeds;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
         if Hashtbl.mem mc c.c_to && not (Hashtbl.mem mc c.c_from) then begin
           Hashtbl.replace mc c.c_from ();
           changed := true
         end)
      !calls
  done;
  maycomp := mc;

  (* transitive acquisitions per definition *)
  let acqc : (string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let get_set d =
    match Hashtbl.find_opt acqc d with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 4 in
      Hashtbl.replace acqc d s;
      s
  in
  Hashtbl.iter
    (fun d ks ->
       let s = get_set d in
       List.iter (fun k -> Hashtbl.replace s k ()) !ks)
    acquires;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
         match Hashtbl.find_opt acqc c.c_to with
         | None -> ()
         | Some src ->
           let dst = get_set c.c_from in
           Hashtbl.iter
             (fun k () ->
                if not (Hashtbl.mem dst k) then begin
                  Hashtbl.replace dst k ();
                  changed := true
                end)
             src)
      !calls
  done;

  (* inter-procedural order edges: caller holds H, callee transitively
     acquires K — every h -> k pair is an edge. Witnesses point at the
     caller definition. *)
  List.iter
    (fun c ->
       if c.c_srcs <> [] then
         match Hashtbl.find_opt acqc c.c_to with
         | None -> ()
         | Some ks ->
           (match Hashtbl.find_opt model.Callgraph.defs c.c_from with
            | None -> ()
            | Some fromd ->
              Hashtbl.iter
                (fun k () ->
                   List.iter
                     (fun h ->
                        if not (Hashtbl.mem oedges (h, k)) then
                          Hashtbl.replace oedges (h, k)
                            ( fromd.Callgraph.d_path,
                              fromd.Callgraph.d_line,
                              c.c_from ))
                     c.c_srcs)
                ks))
    !calls;

  (* lock-order cycles *)
  let ladj = Hashtbl.create 64 in
  Hashtbl.iter (fun (a, b) _ -> addsucc ladj a b) oedges;
  let reaches src dst =
    let seen = Hashtbl.create 16 in
    let rec go n =
      n = dst
      || (not (Hashtbl.mem seen n))
         && begin
           Hashtbl.replace seen n ();
           List.exists go (Option.value ~default:[] (Hashtbl.find_opt ladj n))
         end
    in
    go src
  in
  Hashtbl.iter
    (fun (a, b) (file, line, sym) ->
       if reaches b a then
         emit ~rule:rule_lock_order ~sev:Lint.Error ~file ~sym
           { Location.none with
             loc_start =
               { Lexing.pos_fname = file; pos_lnum = line; pos_bol = 0; pos_cnum = 0 } }
           (Printf.sprintf
              "lock-order cycle: %s is acquired while holding %s, and a \
               reverse acquisition path exists; impose one global acquisition \
               order on these mutexes"
              b a))
    oedges;

  (* ---- phase 2: emit rule findings ---- *)
  List.iter (walk_def 2) model.Callgraph.order;

  (* parse failures surface like the per-file linter's parse-error *)
  List.iter
    (fun f ->
       match f.Callgraph.f_err with
       | None -> ()
       | Some (line, msg) ->
         findings :=
           ( { Lint.rule = "parse-error"; severity = Lint.Error;
               file = f.Callgraph.f_path; line; col = 0;
               message = "file does not parse: " ^ msg },
             "(file)" )
           :: !findings)
    model.Callgraph.files;

  (* ---- suppression / allowlist filtering, then deterministic order ---- *)
  let supp_of =
    let tbl = Hashtbl.create 64 in
    fun path ->
      match Hashtbl.find_opt tbl path with
      | Some s -> s
      | None ->
        let s =
          match
            List.find_opt (fun f -> f.Callgraph.f_path = path) model.Callgraph.files
          with
          | Some f -> Lint.suppressions f.Callgraph.f_text
          | None -> []
        in
        Hashtbl.replace tbl path s;
        s
  in
  let kept =
    List.filter
      (fun (f, _) ->
         (not (Lint.suppressed (supp_of f.Lint.file) f))
         && not (Lint.allowed allow f.Lint.rule f.Lint.file))
      !findings
  in
  let kept =
    List.sort (fun (a, _) (b, _) -> Lint.compare_finding a b) kept
  in

  let funcs =
    List.length
      (List.filter (fun d -> d.Callgraph.d_kind = Callgraph.Func)
         model.Callgraph.order)
  in
  let dedup_edges = Hashtbl.create 256 in
  List.iter (fun c -> Hashtbl.replace dedup_edges (c.c_from, c.c_to) ()) !calls;
  let par_list =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) !par_set [])
  in
  { r_findings = kept;
    r_stats =
      [ ("files", List.length model.Callgraph.files);
        ("definitions", List.length model.Callgraph.order);
        ("functions", funcs);
        ("call_edges", Hashtbl.length dedup_edges);
        ("parallel_roots", Hashtbl.length par_roots);
        ("parallel_reachable", Hashtbl.length !par_set);
        ("lock_order_edges", Hashtbl.length oedges) ];
    r_par = par_list }
