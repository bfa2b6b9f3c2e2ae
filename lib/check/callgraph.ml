(* The whole-program model behind `qcs_lint --program` and the
   reachability guard of the lint tests: every .ml source under the
   analyzed roots parsed into one table of qualified definitions, the
   modules around them, and the name-resolution rules that turn
   `Module.func` references into definitions.

   Resolution exploits a repo-wide invariant: every dune library here is
   `(wrapped false)`, so a compilation unit's module name is exactly its
   capitalized filename and `Pool.run` means "the `run` defined in
   pool.ml" no matter which library it lives in.

   Modules are modeled syntactically (DESIGN.md §10):
   - a functor body is a structure like any other; its definitions live
     under the functor's path ("Dmav_generic.Make.run_pieces") and its
     parameters are modules ("Dmav_generic.Make.P");
   - a module that is an alias or a functor application, or that
     includes one, stands for the module named (for an application, the
     functor, whose body holds the instance's definitions); each
     argument of an application is what the functor's parameter stands
     for, so a parameter stands for every module its functor is applied
     to anywhere in the program;
   - a first-class module unpacked in a definition, [(module E : S)] or
     [let module E = (val m)], is a module under the definition's name
     ("Driver.step.E") that stands for every module the program packs
     with [(module M)]; [let module] bindings sit there too.
   A reference resolves through these: [Buf.x] to [Storage.Extend.x] by
   way of [include Storage.F64] and [F64 = Extend (Core64)].
   Module-level code that is not a named [let] ([let () = ...], a
   top-level expression, a destructuring [let]) is a definition named
   "(init:LINE)". *)

open Parsetree

(* --- small parsetree helpers (shared with Program) -------------------- *)

let rec lid_to_string = function
  | Longident.Lident s -> Some s
  | Longident.Ldot (l, s) ->
    (match lid_to_string l with Some p -> Some (p ^ "." ^ s) | None -> None)
  | Longident.Lapply _ -> None

let ident_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> lid_to_string txt
  | _ -> None

let last_component id =
  match String.rindex_opt id '.' with
  | Some i -> String.sub id (i + 1) (String.length id - i - 1)
  | None -> id

let rec strip_constraint e =
  match e.pexp_desc with Pexp_constraint (e, _) -> strip_constraint e | _ -> e

let rec pat_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_name p
  | _ -> None

(* Every variable a pattern binds (for scoping match/fun arguments). *)
let pat_vars p =
  let out = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      Ast_iterator.pat =
        (fun self p ->
           (match p.ppat_desc with
            | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> out := txt :: !out
            | _ -> ());
           Ast_iterator.default_iterator.Ast_iterator.pat self p) }
  in
  it.Ast_iterator.pat it p;
  !out

(* --- the model -------------------------------------------------------- *)

type mkind = Ref | Table | Queue_ | Buffer_ | Atomic_ | Array_

type kind = Func | Mutable of mkind | Plain

type def = {
  d_name : string;           (* fully qualified: "Serve.admit", "Obs.Metrics.snapshot" *)
  d_modpath : string list;   (* enclosing module path: ["Obs"; "Metrics"] *)
  d_path : string;           (* source file, '/'-separated *)
  d_line : int;
  d_kind : kind;
  d_rec : bool;              (* bound by [let rec]: its body sees itself *)
  d_body : expression;
}

type file = {
  f_path : string;
  f_module : string;
  f_text : string;
  f_opens : string list;     (* file- or expression-level `open M` paths *)
  f_err : (int * string) option;  (* parse failure: (line, message) *)
}

type t = {
  files : file list;
  defs : (string, def) Hashtbl.t;  (* last definition of a name wins lookups *)
  order : def list;                (* every definition, deterministic order *)
  modules : (string, unit) Hashtbl.t;
  stands_for : (string, string) Hashtbl.t;  (* several bindings per module *)
  packed : string list;
}

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* --- source discovery ------------------------------------------------- *)

let rec walk_tree acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
            if entry = "_build" || (entry <> "" && entry.[0] = '.') then acc
            else walk_tree acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let collect_files roots =
  List.sort compare (List.fold_left walk_tree [] roots)

let load roots =
  List.map
    (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
    (collect_files roots)

(* --- module scopes ---------------------------------------------------- *)

(* The scopes a name written inside [modpath] is looked up in, innermost
   first, as qualified prefixes (not the empty top scope). *)
let rec enclosing = function
  | [] -> []
  | p -> String.concat "." p :: enclosing (List.rev (List.tl (List.rev p)))

let qualify scope name = if scope = "" then name else scope ^ "." ^ name

(* The path of a module written [m] inside [at] with [opens] in force:
   the innermost scope that has a module named [m]'s first component. *)
let locate modules ~at ~opens m =
  let head = match String.index_opt m '.' with Some i -> String.sub m 0 i | None -> m in
  List.find_map
    (fun s -> if Hashtbl.mem modules (qualify s head) then Some (qualify s m) else None)
    (enclosing at @ opens @ [ "" ])

(* --- definition extraction -------------------------------------------- *)

let kind_of_rhs e =
  match (strip_constraint e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> Func
  | Pexp_apply (f, _) ->
    (match ident_of f with
     | Some ("ref" | "Stdlib.ref") -> Mutable Ref
     | Some "Hashtbl.create" -> Mutable Table
     | Some "Queue.create" -> Mutable Queue_
     | Some "Buffer.create" -> Mutable Buffer_
     | Some "Atomic.make" -> Mutable Atomic_
     | Some ("Array.make" | "Array.init" | "Array.create_float") -> Mutable Array_
     | _ -> Plain)
  | _ -> Plain

let rec module_ident me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> lid_to_string txt
  | Pmod_constraint (me, _) -> module_ident me
  | _ -> None

let build sources =
  let defs = Hashtbl.create 1024 and modules = Hashtbl.create 256 in
  let stands_for = Hashtbl.create 64 and params = Hashtbl.create 16 in
  let unpacked = Hashtbl.create 16 and packed = ref [] in
  let order = ref [] and packs = ref [] and later = ref [] in
  (* Module references resolve once every module is known: the packs
     first, then the bindings, which read them. *)
  let collect ~path ~opens =
    let locate ~at m = locate modules ~at ~opens:(List.rev !opens) m in
    let declare p = Hashtbl.replace modules (String.concat "." p) () in
    let rec structure modpath str = List.iter (item modpath) str
    and item modpath si =
      match si.pstr_desc with
      | Pstr_value (rf, vbs) ->
        List.iter
          (fun vb ->
             let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
             (* [let () = ...] and destructuring lets run when the module
                is linked: their bodies are kept under a synthetic name,
                unresolvable by design, so what they call is walked. *)
             let name =
               Option.value (pat_name vb.pvb_pat) ~default:(Printf.sprintf "(init:%d)" line)
             in
             add_def modpath name line (rf = Asttypes.Recursive) vb.pvb_expr)
          vbs
      | Pstr_eval (e, _) ->
        let line = si.pstr_loc.Location.loc_start.Lexing.pos_lnum in
        add_def modpath (Printf.sprintf "(init:%d)" line) line false e
      | Pstr_module mb -> module_binding modpath mb
      | Pstr_recmodule mbs -> List.iter (module_binding modpath) mbs
      | Pstr_include incl -> module_expr ~self:modpath ~at:modpath incl.pincl_mod
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        Option.iter (fun o -> opens := o :: !opens) (lid_to_string txt)
      | _ -> ()
    and module_binding modpath mb =
      Option.iter
        (fun m ->
           declare (modpath @ [ m ]);
           module_expr ~self:(modpath @ [ m ]) ~at:modpath mb.pmb_expr)
        mb.pmb_name.txt
    (* Module [self], written inside [at], is (or includes) [me]. *)
    and module_expr ~self ~at me =
      let key = String.concat "." self in
      match me.pmod_desc with
      | Pmod_structure str -> structure self str
      | Pmod_constraint (me, _) -> module_expr ~self ~at me
      | Pmod_functor (param, body) ->
        (match param with
         | Named ({ txt; _ }, _) ->
           (* [(_ : S)] keeps its place among the arguments *)
           let p = key ^ "." ^ Option.value ~default:"_" txt in
           Hashtbl.replace modules p ();
           Hashtbl.replace params key (Option.value ~default:[] (Hashtbl.find_opt params key) @ [ p ])
         | Unit -> ());
        module_expr ~self ~at:self body
      | Pmod_ident _ | Pmod_apply _ | Pmod_apply_unit _ ->
        (* [M] or [F (A) (B)]: self stands for M, or for F's body with F's
           parameters standing for A and B. *)
        let rec spine me args =
          match me.pmod_desc with
          | Pmod_apply (f, a) -> spine f (module_ident a :: args)
          | Pmod_apply_unit f | Pmod_constraint (f, _) -> spine f args
          | _ -> Option.map (fun f -> (f, args)) (module_ident me)
        in
        Option.iter
          (fun (f, args) ->
             later :=
               (fun () ->
                  Option.iter
                    (fun fp ->
                       Hashtbl.add stands_for key fp;
                       List.iteri
                         (fun i p ->
                            Option.iter (Hashtbl.add stands_for p)
                              (Option.bind (Option.join (List.nth_opt args i)) (locate ~at)))
                         (Option.value ~default:[] (Hashtbl.find_opt params fp)))
                    (locate ~at f))
               :: !later)
          (spine me [])
      | Pmod_unpack _ -> unpack key
      | _ -> ()
    and unpack key =
      Hashtbl.replace unpacked key ();
      later := (fun () -> List.iter (Hashtbl.add stands_for key) !packed) :: !later
    (* A definition, after its body's first-class modules, packs and
       [let module]s are recorded under its own name. *)
    and add_def modpath name line rec_ body =
      let scope = modpath @ [ name ] in
      let local m =
        declare scope;
        declare (scope @ [ m ]);
        scope @ [ m ]
      in
      let default = Ast_iterator.default_iterator in
      let it =
        { default with
          Ast_iterator.expr =
            (fun self e ->
               (match e.pexp_desc with
                | Pexp_pack me ->
                  Option.iter (fun m -> packs := (fun () -> locate ~at:scope m) :: !packs)
                    (module_ident me)
                | Pexp_letmodule ({ txt = Some m; _ }, me, _) ->
                  module_expr ~self:(local m) ~at:scope me
                | _ -> ());
               default.Ast_iterator.expr self e);
          pat =
            (fun self p ->
               (match p.ppat_desc with
                | Ppat_unpack { txt = Some m; _ } -> unpack (String.concat "." (local m))
                | _ -> ());
               default.Ast_iterator.pat self p) }
      in
      it.Ast_iterator.expr it body;
      let d =
        { d_name = String.concat "." scope; d_modpath = modpath; d_path = path; d_line = line;
          d_kind = kind_of_rhs body; d_rec = rec_; d_body = body }
      in
      Hashtbl.replace defs d.d_name d;
      order := d :: !order
    in
    structure
  in
  let files =
    List.map
      (fun (path, text) ->
         let path = Lint.normalize_path path in
         let modname = module_of_path path in
         let opens = ref [] in
         Hashtbl.replace modules modname ();
         let err =
           match Lint.parse path text with
           | Ok str ->
             collect ~path ~opens [ modname ] str;
             None
           | Error e -> Some e
         in
         { f_path = path; f_module = modname; f_text = text; f_opens = List.rev !opens; f_err = err })
      (List.sort (fun (a, _) (b, _) -> compare a b) sources)
  in
  (* A repacked first-class module adds nothing: it stands for the packs. *)
  packed :=
    List.sort_uniq compare
      (List.filter_map
         (fun p -> Option.bind (p ()) (fun m -> if Hashtbl.mem unpacked m then None else Some m))
         !packs);
  List.iter (fun f -> f ()) (List.rev !later);
  { files; defs; order = List.rev !order; modules; stands_for; packed = !packed }

(* --- name resolution -------------------------------------------------- *)

let find t name = Hashtbl.find_opt t.defs name

(* The definitions a qualified name stands for: itself, or else the same
   member of what its longest standing-for module prefix stands for. *)
let rec through t depth full =
  match find t full with
  | Some d -> [ d ]
  | None when depth > 8 -> []
  | None ->
    let rec go i =
      match String.rindex_from_opt full i '.' with
      | None | Some 0 -> []
      | Some j ->
        (match Hashtbl.find_all t.stands_for (String.sub full 0 j) with
         | [] -> go (j - 1)
         | targets ->
           let member = String.sub full j (String.length full - j) in
           List.concat_map (fun m -> through t (depth + 1) (m ^ member)) targets)
    in
    go (String.length full - 1)

(* Candidate scopes for a reference written [name] inside [modpath] with
   [opens] in force, innermost first: [self]'s own modules, every
   enclosing module, then the opened modules, then the top. The first
   scope with an answer wins, except that a reference inside the body of
   a non-recursive [self] does not see [self]: in [let x = ... x ...] the
   inner [x] is an outer binding. An earlier definition of the same name
   in the same module shares [self]'s qualified name, so the lookup
   passes it over too. *)
let resolve t ?self ~modpath ~opens name =
  let hides (d : def) =
    match self with
    | Some s -> (not s.d_rec) && d.d_name = s.d_name
    | None -> false
  in
  let own =
    match self with Some s when Hashtbl.mem t.modules s.d_name -> [ s.d_name ] | _ -> []
  in
  let opens =
    List.map (fun o -> Option.value ~default:o (locate t.modules ~at:modpath ~opens:[] o)) opens
  in
  List.find_map
    (fun scope ->
       match List.filter (fun d -> not (hides d)) (through t 0 (qualify scope name)) with
       | [] -> None
       | ds -> Some (List.sort_uniq (fun a b -> compare a.d_name b.d_name) ds))
    (own @ enclosing modpath @ opens @ [ "" ])
  |> Option.value ~default:[]
