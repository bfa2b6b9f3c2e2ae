(* The whole-program model behind `qcs_lint --program`: every .ml source
   under the analyzed roots parsed into one table of qualified top-level
   definitions, plus the name-resolution rules the inter-procedural
   passes (Program) use to turn `Module.func` references into edges.

   Resolution exploits a repo-wide invariant: every dune library here is
   `(wrapped false)`, so a compilation unit's module name is exactly its
   capitalized filename and `Pool.run` means "the `run` defined in
   pool.ml" no matter which library it lives in. The dune files are still
   scanned — a `(wrapped true)` library would silently break that
   assumption, so [build] records the wrapped-ness and [resolve] refuses
   nothing but the caller can surface it. Known imprecision (documented
   in DESIGN.md §10): functors, first-class modules, module aliases and
   `include` are not modeled; a reference through any of them simply
   fails to resolve and drops the edge. *)

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

let rec collect_structure ~path ~modpath ~defs ~order ~opens str =
  List.iter
    (fun si ->
       match si.pstr_desc with
       | Pstr_value (rf, vbs) ->
         List.iter
           (fun vb ->
              let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
              let name =
                match pat_name vb.pvb_pat with
                | Some n -> Some n
                | None ->
                  (* [let () = ...] / [let _ = ...]: keep the body under a
                     synthetic name so entry points inside CLI mains are
                     still walked. Unresolvable by design. *)
                  (match vb.pvb_pat.ppat_desc with
                   | Ppat_any | Ppat_construct _ ->
                     Some (Printf.sprintf "(init:%d)" line)
                   | _ -> None)
              in
              match name with
              | None -> ()
              | Some n ->
                let d =
                  { d_name = String.concat "." (modpath @ [ n ]);
                    d_modpath = modpath;
                    d_path = path;
                    d_line = line;
                    d_kind = kind_of_rhs vb.pvb_expr;
                    d_rec = rf = Asttypes.Recursive;
                    d_body = vb.pvb_expr }
                in
                Hashtbl.replace defs d.d_name d;
                order := d :: !order)
           vbs
       | Pstr_module mb -> collect_module ~path ~modpath ~defs ~order ~opens mb
       | Pstr_recmodule mbs ->
         List.iter (collect_module ~path ~modpath ~defs ~order ~opens) mbs
       | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
         (match lid_to_string txt with
          | Some o -> opens := o :: !opens
          | None -> ())
       | _ -> ())
    str

and collect_module ~path ~modpath ~defs ~order ~opens mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some m ->
    let rec unwrap me =
      match me.pmod_desc with
      | Pmod_structure str ->
        collect_structure ~path ~modpath:(modpath @ [ m ]) ~defs ~order ~opens str
      | Pmod_constraint (me, _) -> unwrap me
      | _ -> () (* functors, applications: not modeled *)
    in
    unwrap mb.pmb_expr

let build sources =
  let defs = Hashtbl.create 1024 in
  let order = ref [] in
  let files =
    List.map
      (fun (path, text) ->
         let path = Lint.normalize_path path in
         let modname = module_of_path path in
         let opens = ref [] in
         let err =
           match Lint.parse path text with
           | Ok str ->
             collect_structure ~path ~modpath:[ modname ] ~defs ~order ~opens str;
             None
           | Error e -> Some e
         in
         { f_path = path;
           f_module = modname;
           f_text = text;
           f_opens = List.rev !opens;
           f_err = err })
      (List.sort (fun (a, _) (b, _) -> compare a b) sources)
  in
  { files; defs; order = List.rev !order }

(* --- name resolution -------------------------------------------------- *)

let find t name = Hashtbl.find_opt t.defs name

(* Candidate scopes for a reference written [name] inside [modpath] with
   [opens] in force, innermost first: every enclosing module prefix, then
   the opened modules, then the name as written (an absolute
   [Module.func] path). First hit wins, except that a reference inside
   the body of a non-recursive [self] does not see [self]: in
   [let x = ... x ...] the inner [x] is an outer binding. An earlier
   definition of the same name in the same module shares [self]'s
   qualified name, so the lookup passes it over too. *)
let resolve t ?self ~modpath ~opens name =
  let hides (d : def) =
    match self with
    | Some s -> (not s.d_rec) && d.d_name = s.d_name
    | None -> false
  in
  let rec prefixes = function
    | [] -> [ [] ]
    | p -> p :: prefixes (List.rev (List.tl (List.rev p)))
  in
  let candidates =
    List.map (fun p -> String.concat "." (p @ [ name ])) (prefixes modpath)
    @ List.map (fun o -> o ^ "." ^ name) opens
  in
  let rec first = function
    | [] -> None
    | c :: rest ->
      (match find t c with Some d when not (hides d) -> Some d | _ -> first rest)
  in
  first candidates
