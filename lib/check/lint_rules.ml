(* The rule catalog. Each rule targets one hazard this codebase has
   actually had (or nearly had): raw float equality outside the ctable's
   tolerance path, unsafe indexing outside the audited kernels, mutexes
   locked without an exception-safe unlock, Hashtbl mutation from inside
   Pool closures, and stray stdout writes in library code.

   Everything here is syntactic — the linter parses but does not type —
   so each detector is a deliberately conservative approximation,
   documented per rule. False positives are handled by the
   [(* qcs-lint: allow <rule> *)] comment or the lint.allow file. *)

open Parsetree

(* --- Parsetree helpers ------------------------------------------------ *)

let rec lid_to_string = function
  | Longident.Lident s -> Some s
  | Longident.Ldot (l, s) ->
    (match lid_to_string l with Some p -> Some (p ^ "." ^ s) | None -> None)
  | Longident.Lapply _ -> None

let ident_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> lid_to_string txt
  | _ -> None

let ident_in names e =
  match ident_of e with Some id -> List.mem id names | None -> false

let last_component id =
  match String.rindex_opt id '.' with
  | Some i -> String.sub id (i + 1) (String.length id - i - 1)
  | None -> id

(* Walk an expression with a throwaway iterator, calling [on_expr] on
   every sub-expression. Used by the rules that analyze a region (a whole
   function body, a closure) rather than a single node. *)
let iter_exprs on_expr e =
  let it =
    { Ast_iterator.default_iterator with
      Ast_iterator.expr =
        (fun self e ->
           on_expr e;
           Ast_iterator.default_iterator.Ast_iterator.expr self e) }
  in
  it.Ast_iterator.expr it e

let on_expr rule check =
  { rule with
    Lint.ast =
      Some
        (fun ctx prev ->
           { prev with
             Ast_iterator.expr =
               (fun self e ->
                  check ctx e;
                  prev.Ast_iterator.expr self e) }) }

let stub name severity doc = { Lint.name; severity; doc; ast = None; text = None }

(* --- float-eq --------------------------------------------------------- *)

(* DD edge weights must only be compared through the tolerance-bucketed
   complex table (Ctable); a raw [=] on floats silently splits nodes that
   the paper's normalization would merge. Syntactic approximation: flag
   =/<>/==/!= where either operand is a float literal. Comparisons of two
   float-typed variables escape this net (no types here), but every
   incident so far has been a literal comparison. *)
let is_float_lit e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ },
        [ (_, { pexp_desc = Pexp_constant (Pconst_float _); _ }) ] ) -> true
  | _ -> false

let float_eq =
  let rule =
    stub "float-eq" Lint.Error
      "raw =/<> against a float literal; use Float.equal, Float.classify_float, \
       or the ctable tolerance path"
  in
  on_expr rule (fun ctx e ->
      match e.pexp_desc with
      | Pexp_apply (op, [ (_, a); (_, b) ])
        when ident_in [ "="; "<>"; "=="; "!=" ] op
             && (is_float_lit a || is_float_lit b) ->
        Lint.report ctx ~rule ~loc:e.pexp_loc
          "raw float equality with a literal; use Float.equal / \
           Float.classify_float (or Ctable for edge weights)"
      | _ -> ())

(* --- obj-magic -------------------------------------------------------- *)

let obj_magic =
  let rule =
    stub "obj-magic" Lint.Error "Obj.magic defeats the type system entirely"
  in
  on_expr rule (fun ctx e ->
      if ident_in [ "Obj.magic"; "Stdlib.Obj.magic" ] e then
        Lint.report ctx ~rule ~loc:e.pexp_loc
          "Obj.magic is forbidden; restructure with a GADT or a first-class module")

(* --- unsafe-array ----------------------------------------------------- *)

let unsafe_names =
  [ "Array.unsafe_get"; "Array.unsafe_set"; "Bytes.unsafe_get"; "Bytes.unsafe_set";
    "String.unsafe_get"; "Float.Array.unsafe_get"; "Float.Array.unsafe_set";
    "Bigarray.Array1.unsafe_get"; "Bigarray.Array1.unsafe_set" ]

let unsafe_array =
  let rule =
    stub "unsafe-array" Lint.Error
      "bounds-unchecked indexing outside the allowlisted DMAV/statevec kernels"
  in
  on_expr rule (fun ctx e ->
      match ident_of e with
      | Some id when List.mem id unsafe_names ->
        Lint.report ctx ~rule ~loc:e.pexp_loc
          (id ^ " outside an allowlisted kernel; use checked indexing or add the \
                 file to lint.allow with a justification")
      | _ -> ())

(* --- catchall-exn ----------------------------------------------------- *)

(* [with _ ->] swallows Driver.Cancelled, Check.Race, Stack_overflow and
   Out_of_memory alike. A wildcard handler is fine only when it re-raises;
   [with e -> ... e ...] (binding the exception) is deliberately not
   flagged, since the value is at least propagated somewhere. *)
let rec is_wild p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_exception p | Ppat_constraint (p, _) -> is_wild p
  | Ppat_or (a, b) -> is_wild a || is_wild b
  | _ -> false

let reraises e =
  let found = ref false in
  iter_exprs
    (fun e ->
       if
         ident_in
           [ "raise"; "raise_notrace"; "reraise"; "Printexc.raise_with_backtrace" ]
           e
       then found := true)
    e;
  !found

let catchall_exn =
  let rule =
    stub "catchall-exn" Lint.Warning
      "a wildcard exception handler that does not re-raise swallows \
       cancellation and runtime failures"
  in
  let check_cases ctx cases =
    List.iter
      (fun c ->
         if is_wild c.pc_lhs && c.pc_guard = None && not (reraises c.pc_rhs) then
           Lint.report ctx ~rule ~loc:c.pc_lhs.ppat_loc
             "catch-all exception handler swallows exceptions (including \
              cancellation); match specific exceptions or re-raise")
      cases
  in
  on_expr rule (fun ctx e ->
      match e.pexp_desc with
      | Pexp_try (_, cases) -> check_cases ctx cases
      | Pexp_match (_, cases) ->
        check_cases ctx
          (List.filter
             (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
             cases)
      | _ -> ())

(* --- mutex-discipline ------------------------------------------------- *)

(* Per top-level binding: a [Mutex.lock] with no reachable [Mutex.unlock]
   and no protecting combinator is an error (the lock can never be
   released); a lock/unlock pair without a protecting combinator is a
   warning (an exception between them leaves the mutex held — pool.ml's
   worker loops hand the lock over deliberately and carry a suppression).
   Protecting combinators are recognized by name: Fun.protect,
   Mutex.protect, or any helper whose last component is protect / locked /
   with_lock / with_mutex (the [locked t f] idiom used by obs and sched). *)
let protect_markers = [ "protect"; "locked"; "with_lock"; "with_mutex" ]

let mutex_discipline =
  let rule =
    stub "mutex-discipline" Lint.Warning
      "Mutex.lock without a reachable unlock (error) or without \
       Fun.protect-style exception safety (warning)"
  in
  let check_binding ctx vb =
    let locks = ref [] in
    let unlocks = ref 0 in
    let protected_ = ref false in
    iter_exprs
      (fun e ->
         match ident_of e with
         | Some "Mutex.lock" -> locks := e.pexp_loc :: !locks
         | Some "Mutex.unlock" -> incr unlocks
         | Some id ->
           if List.mem (last_component id) protect_markers then protected_ := true
         | None -> ())
      vb.pvb_expr;
    match List.rev !locks with
    | [] -> ()
    | first :: _ when !unlocks = 0 && not !protected_ ->
      Lint.report ctx ~rule ~severity:Lint.Error ~loc:vb.pvb_loc
        (Printf.sprintf
           "Mutex.lock at line %d has no reachable Mutex.unlock or Fun.protect in \
            this function"
           first.Location.loc_start.Lexing.pos_lnum)
    | _ :: _ when not !protected_ ->
      Lint.report ctx ~rule ~loc:vb.pvb_loc
        "lock/unlock pair is not exception-safe; wrap the critical section in \
         Fun.protect ~finally:(fun () -> Mutex.unlock m)"
    | _ -> ()
  in
  { rule with
    Lint.ast =
      Some
        (fun ctx prev ->
           { prev with
             Ast_iterator.structure_item =
               (fun self si ->
                  (match si.pstr_desc with
                   | Pstr_value (_, vbs) -> List.iter (check_binding ctx) vbs
                   | _ -> ());
                  prev.Ast_iterator.structure_item self si) }) }

(* --- naked-hashtbl-in-parallel ---------------------------------------- *)

(* Hashtbl is not domain-safe. Mutating one from inside a closure handed
   to Pool.parallel_for / Pool.run is a race unless the table was created
   inside that same closure (the per-worker cache in Dmav.apply_cache is
   the sanctioned pattern). *)
let parallel_entry_points =
  [ "Pool.parallel_for"; "Pool.parallel_for_ranges"; "Pool.run" ]

let hashtbl_mutators =
  [ "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace" ]

let rec strip_pat_constraint p =
  match p.ppat_desc with Ppat_constraint (p, _) -> strip_pat_constraint p | _ -> p

let rec strip_exp_constraint e =
  match e.pexp_desc with Pexp_constraint (e, _) -> strip_exp_constraint e | _ -> e

let is_function_literal e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let naked_hashtbl =
  let rule =
    stub "naked-hashtbl-in-parallel" Lint.Error
      "Hashtbl mutation of a shared table inside a closure handed to the pool"
  in
  let check_closure ctx closure =
    (* Pass 1: names bound to Hashtbl.create inside the closure are
       worker-local and safe to mutate. *)
    let local = Hashtbl.create 8 in
    iter_exprs
      (fun e ->
         match e.pexp_desc with
         | Pexp_let (_, vbs, _) ->
           List.iter
             (fun vb ->
                match (strip_pat_constraint vb.pvb_pat).ppat_desc with
                | Ppat_var { txt; _ } ->
                  (match (strip_exp_constraint vb.pvb_expr).pexp_desc with
                   | Pexp_apply (f, _) when ident_in [ "Hashtbl.create" ] f ->
                     Hashtbl.replace local txt ()
                   | _ -> ())
                | _ -> ())
             vbs
         | _ -> ())
      closure;
    (* Pass 2: flag mutations of anything else. *)
    iter_exprs
      (fun e ->
         match e.pexp_desc with
         | Pexp_apply (f, (_, tbl) :: _) when
             (match ident_of f with
              | Some id -> List.mem id hashtbl_mutators
              | None -> false) ->
           let shared =
             match (strip_exp_constraint tbl).pexp_desc with
             | Pexp_ident { txt = Longident.Lident name; _ } ->
               not (Hashtbl.mem local name)
             | _ -> true
           in
           if shared then
             Lint.report ctx ~rule ~loc:e.pexp_loc
               "Hashtbl mutation of a table not created in this closure; Hashtbl \
                is not domain-safe — use a per-worker table or an Atomic/Mutex"
         | _ -> ())
      closure
  in
  on_expr rule (fun ctx e ->
      match e.pexp_desc with
      | Pexp_apply (f, args) when ident_in parallel_entry_points f ->
        List.iter
          (fun (_, a) -> if is_function_literal a then check_closure ctx a)
          args
      | _ -> ())

(* --- printf-in-lib ---------------------------------------------------- *)

(* Library code must not write to stdout: the CLIs own the terminal, and
   the batch scheduler's JSONL stream would be corrupted by stray prints.
   Metrics go through Obs; debugging output goes to stderr and is removed
   before merge. Applies to lib/ except lib/obs (which owns rendering). *)
let stdout_writers =
  [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float";
    "print_char"; "print_bytes"; "Printf.printf"; "Format.printf";
    "Format.print_string"; "Format.print_newline"; "Stdlib.print_string";
    "Stdlib.print_endline" ]

let printf_in_lib =
  let rule =
    stub "printf-in-lib" Lint.Error
      "stdout write inside lib/ (outside lib/obs) corrupts CLI/JSONL output"
  in
  let applies path =
    String.starts_with ~prefix:"lib/" path
    && not (String.starts_with ~prefix:"lib/obs/" path)
  in
  on_expr rule (fun ctx e ->
      if applies ctx.Lint.src.Lint.path then
        match e.pexp_desc with
        | Pexp_ident _ when ident_in stdout_writers e ->
          Lint.report ctx ~rule ~loc:e.pexp_loc
            "stdout write in library code; surface data through Obs or return it \
             to the caller"
        | Pexp_apply (f, (_, first) :: _)
          when ident_in [ "output_string"; "output_char"; "output_bytes" ] f
               && ident_in [ "stdout"; "Stdlib.stdout" ] first ->
          Lint.report ctx ~rule ~loc:e.pexp_loc
            "stdout write in library code; surface data through Obs or return it \
             to the caller"
        | _ -> ())

(* --- node-alloc-outside-arena ----------------------------------------- *)

(* Since the arena refactor, every DD node lives in a package-owned
   Node_store and every edge is a packed [(wid lsl 31) lor tgt] int whose
   index is only meaningful relative to that package's arena. The dd
   library is wrapped-false, so nothing stops a module in lib/engine from
   calling [Node_store.alloc2] directly or hand-packing an edge — which
   bypasses normalization, the unique table, and the epoch scheme, and
   silently breaks canonicity (or aliases a freed slot after compaction).
   Construction must go through the Dd API ([make_vnode], [make_mnode],
   [vterm_edge], ...), and only inside lib/dd/.

   Two syntactic nets, both scoped to paths outside lib/dd/:
   - any reference into the Node_store module (the arena is lib/dd
     private; even reads are a layering leak);
   - a [lor] whose operand is [_ lsl 31] (or [_ lsl tgt_bits]) — the edge
     packing shape. Shifts by other amounts (Bits helpers, hash mixing)
     are not flagged. *)
let is_edge_shift e =
  match e.pexp_desc with
  | Pexp_apply (op, [ (_, _); (_, amt) ])
    when ident_in [ "lsl"; "Stdlib.lsl" ] op ->
    (match amt.pexp_desc with
     | Pexp_constant (Pconst_integer ("31", None)) -> true
     | Pexp_ident _ ->
       (match ident_of amt with
        | Some id -> last_component id = "tgt_bits"
        | None -> false)
     | _ -> false)
  | _ -> false

let node_alloc_outside_arena =
  let rule =
    stub "node-alloc-outside-arena" Lint.Error
      "DD node/edge construction outside lib/dd bypasses normalization, the \
       unique table and the epoch scheme; use the Dd API"
  in
  let applies path = not (String.starts_with ~prefix:"lib/dd/" path) in
  on_expr rule (fun ctx e ->
      if applies ctx.Lint.src.Lint.path then
        match e.pexp_desc with
        | Pexp_ident _ ->
          (match ident_of e with
           | Some id
             when String.starts_with ~prefix:"Node_store." id
                  || String.starts_with ~prefix:"Dd.Node_store." id ->
             Lint.report ctx ~rule ~loc:e.pexp_loc
               (id ^ ": the arena node store is private to lib/dd; construct \
                     nodes through Dd.make_vnode/make_mnode")
           | _ -> ())
        | Pexp_apply (op, [ (_, a); (_, b) ])
          when ident_in [ "lor"; "Stdlib.lor" ] op
               && (is_edge_shift a || is_edge_shift b) ->
          Lint.report ctx ~rule ~loc:e.pexp_loc
            "raw packed-edge construction ((wid lsl 31) lor tgt) outside \
             lib/dd; edges must come from the Dd API"
        | _ -> ())

(* --- boxed-cnum-in-hot-loop ------------------------------------------- *)

(* The PR-10 storage refactor moved every kernel inner loop onto the
   unboxed Storage primitives: bare-float get_re/get_im/set2/madd2 calls
   that never construct a [Cnum.t] and never pay the checked [Buf.get]
   bounds test per element. A boxed call creeping back into a loop in the
   hot libraries (dmav, convert, statevec) re-introduces an allocation
   per amplitude — invisible to tests, ruinous to bandwidth. Syntactic
   net: any reference to a Cnum constructor/arithmetic or checked Buf
   element access lexically inside a [for]/[while] body in those paths.
   Boxed calls in straight-line (per-gate, not per-element) code are
   fine and not flagged. The deliberately boxed reference kernel
   (statevec/qpp_kernel.ml) carries a lint.allow entry. *)
let boxed_names =
  [ "Cnum.mul"; "Cnum.add"; "Cnum.make"; "Buf.get"; "Buf.set";
    "Storage.F64.get"; "Storage.F64.set"; "Storage.F32.get"; "Storage.F32.set" ]

let boxed_cnum_in_hot_loop =
  let rule =
    stub "boxed-cnum-in-hot-loop" Lint.Error
      "boxed Cnum construction or checked per-element Buf access inside a \
       kernel loop in lib/dmav, lib/convert or lib/statevec"
  in
  let applies path =
    List.exists
      (fun p -> String.starts_with ~prefix:p path)
      [ "lib/dmav/"; "lib/convert/"; "lib/statevec/" ]
  in
  { rule with
    Lint.ast =
      Some
        (fun ctx prev ->
           (* Nested loops visit inner bodies twice (outer walk + inner
              walk); dedupe per file so each call site reports once. *)
           let seen = Hashtbl.create 32 in
           let check_loop body =
             iter_exprs
               (fun e ->
                  match ident_of e with
                  | Some id when List.mem id boxed_names ->
                    let pos = e.pexp_loc.Location.loc_start in
                    let key = (pos.Lexing.pos_lnum, pos.Lexing.pos_cnum) in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.replace seen key ();
                      Lint.report ctx ~rule ~loc:e.pexp_loc
                        (id
                         ^ " inside a loop boxes a complex (or bounds-checks) per \
                            element; use the unboxed Storage primitives \
                            (get_re/get_im, set2, madd2) or hoist it out of the \
                            loop")
                    end
                  | _ -> ())
               body
           in
           { prev with
             Ast_iterator.expr =
               (fun self e ->
                  (if applies ctx.Lint.src.Lint.path then
                     match e.pexp_desc with
                     | Pexp_for (_, _, _, _, body) -> check_loop body
                     | Pexp_while (_, body) -> check_loop body
                     | _ -> ());
                  prev.Ast_iterator.expr self e) }) }

(* --- hot-external-alloc ------------------------------------------------ *)

(* The flat-phase kernels are C stubs (kernels_stubs.c) called once per
   pool stripe. Their externals must be [@@noalloc]: a stub declared
   without it pays the runtime's allocating-call protocol on every
   stripe, and a stub that did allocate would race the GC from inside a
   pool worker. OCaml also needs a separate byte-code entry point for an
   external of more than 5 arguments (the bytecode interpreter passes
   those as an argv array), and forgetting it only fails at bytecode link
   time. Scope: every [external] in the hot libraries (complexnum,
   statevec, dmav, convert). *)
let hot_external_paths = [ "lib/complexnum/"; "lib/statevec/"; "lib/dmav/"; "lib/convert/" ]

let rec arrow_arity t =
  match t.ptyp_desc with Ptyp_arrow (_, _, r) -> 1 + arrow_arity r | _ -> 0

let hot_external_alloc =
  let rule =
    stub "hot-external-alloc" Lint.Error
      "external in a hot-path library without [@@noalloc], or with more than \
       5 arguments and no byte-code stub name"
  in
  let applies path =
    List.exists (fun p -> String.starts_with ~prefix:p path) hot_external_paths
  in
  { rule with
    Lint.ast =
      Some
        (fun ctx prev ->
           { prev with
             Ast_iterator.value_description =
               (fun self vd ->
                  (if applies ctx.Lint.src.Lint.path && vd.pval_prim <> [] then begin
                     let name = vd.pval_name.Location.txt in
                     let noalloc =
                       List.exists
                         (fun a ->
                            match a.attr_name.Location.txt with
                            | "noalloc" | "ocaml.noalloc" -> true
                            | _ -> false)
                         vd.pval_attributes
                     in
                     if not noalloc then
                       Lint.report ctx ~rule ~loc:vd.pval_loc
                         (name ^ ": hot-path external must carry [@@noalloc]");
                     let arity = arrow_arity vd.pval_type in
                     if arity > 5 && List.length vd.pval_prim < 2 then
                       Lint.report ctx ~rule ~loc:vd.pval_loc
                         (Printf.sprintf
                            "%s: %d arguments need a byte-code stub name \
                             (external ... = \"byte_stub\" \"native_stub\")"
                            name arity)
                   end);
                  prev.Ast_iterator.value_description self vd) }) }

(* --- todo-marker ------------------------------------------------------ *)

(* The words themselves would trip the scan. qcs-lint: allow todo-marker *)
let todo_markers = [ "TODO"; "FIXME"; "XXX" ]

let contains_word line w =
  let n = String.length line and m = String.length w in
  let rec go i = i + m <= n && (String.sub line i m = w || go (i + 1)) in
  go 0

let todo_marker =
  let rule =
    (* qcs-lint: allow todo-marker *)
    stub "todo-marker" Lint.Info "TODO/FIXME/XXX markers are tracked, not shipped"
  in
  { rule with
    Lint.text =
      Some
        (fun ctx ->
           Array.iteri
             (fun i line ->
                match List.find_opt (contains_word line) todo_markers with
                | Some w ->
                  ctx.Lint.emit
                    { Lint.rule = rule.Lint.name;
                      severity = rule.Lint.severity;
                      file = ctx.Lint.src.Lint.path;
                      line = i + 1;
                      col = 0;
                      message = w ^ " marker; file an issue or resolve before merge" }
                | None -> ())
             ctx.Lint.src.Lint.lines) }

let all =
  [ float_eq; obj_magic; unsafe_array; catchall_exn; mutex_discipline; naked_hashtbl;
    printf_in_lib; node_alloc_outside_arena; boxed_cnum_in_hot_loop; hot_external_alloc;
    todo_marker ]

let find name = List.find_opt (fun r -> r.Lint.name = name) all

(* The inter-procedural rules (Program) are not per-file [Lint.rule]s —
   they need the whole-program model — but the catalog lives here so
   [--list-rules] shows one unified rule set. *)
let program = Program.rules
