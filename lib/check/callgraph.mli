(** The whole-program model for [qcs_lint --program] and the lint
    tests' reachability guard.

    Parses every given source into one table of fully-qualified
    definitions ("Serve.admit", "Obs.Metrics.snapshot",
    "Dmav_generic.Make.run_pieces", ...), records the modules around
    them, and resolves [Module.func] references against both. The
    repo-wide [(wrapped false)] dune convention makes a compilation
    unit's module name exactly its capitalized filename, which is what
    makes purely syntactic cross-module resolution viable here.

    Modeled: the definitions inside functor bodies, under the functor's
    path, and its parameters; what a module made by an alias, a functor
    application or an [include] stands for ("Storage.F64" for
    "Storage.Extend", "Buf" for "Storage.F64"); first-class modules and
    [let module] bindings, under the definition that binds them. Two
    resolutions are approximate (DESIGN.md §10): a functor parameter's
    member resolves to that member of every module the functor is
    applied to anywhere, and a first-class module's member to that
    member of every module the program packs with [(module M)].
    Module-level code that is not a named [let] is a definition named
    ["(init:LINE)"]. *)

(** What a top-level [let] binds, judged from its right-hand side. *)
type mkind = Ref | Table | Queue_ | Buffer_ | Atomic_ | Array_

type kind =
  | Func           (** a [fun]/[function] literal: a call-graph node *)
  | Mutable of mkind  (** module-level mutable state: a shared-state cell *)
  | Plain

type def = {
  d_name : string;          (** fully qualified, e.g. ["Obs.Metrics.snapshot"] *)
  d_modpath : string list;  (** enclosing module path, e.g. [["Obs"; "Metrics"]] *)
  d_path : string;          (** source file, '/'-separated *)
  d_line : int;
  d_kind : kind;
  d_rec : bool;             (** bound by [let rec]: its body sees itself *)
  d_body : Parsetree.expression;
}

type file = {
  f_path : string;
  f_module : string;
  f_text : string;
  f_opens : string list;    (** structure-level [open M] paths, in order *)
  f_err : (int * string) option;  (** parse failure: (line, message) *)
}

type t = {
  files : file list;
  defs : (string, def) Hashtbl.t;
  order : def list;  (** every definition in deterministic (file, source) order *)
  modules : (string, unit) Hashtbl.t;
      (** every module path: structures, functors and their parameters,
          aliases, applications, and the first-class and [let module]
          modules under a definition's name ("Driver.step.E") *)
  stands_for : (string, string) Hashtbl.t;
      (** module path to each module path it stands for (several bindings:
          two [include]s, a parameter's arguments, every pack) *)
  packed : string list;  (** the modules written in [(module M)], sorted *)
}

val collect_files : string list -> string list
(** All [.ml] files under the given roots (files or directories),
    skipping [_build] and dot-directories, sorted. *)

val load : string list -> (string * string) list
(** [collect_files] plus contents, ready for {!build}. *)

val build : (string * string) list -> t
(** Build the model from [(path, text)] pairs, parsing each file once.
    Files that fail to parse still appear in [files] with [f_err] set;
    their definitions are absent. *)

val resolve :
  t -> ?self:def -> modpath:string list -> opens:string list -> string -> def list
(** The definitions a reference written [name] from inside [modpath]
    with [opens] in force stands for, from the first scope that has
    any: the modules bound inside [self], the enclosing modules
    innermost first, the opened modules, then the top. Through a module
    that stands for others, a name answers for each of them, so a
    parameter's or a first-class module's member may give several. A
    reference inside the body of [self] skips [self] unless it is
    [let rec]-bound: in a non-recursive [let x = ... x ...] the inner
    [x] is an outer binding. *)

(** {2 Parsetree helpers shared with {!Program}} *)

val lid_to_string : Longident.t -> string option
val ident_of : Parsetree.expression -> string option
val last_component : string -> string
val strip_constraint : Parsetree.expression -> Parsetree.expression
val pat_name : Parsetree.pattern -> string option
val pat_vars : Parsetree.pattern -> string list
