(** The whole-program model for [qcs_lint --program].

    Parses every given source into one table of fully-qualified
    top-level definitions ("Serve.admit", "Obs.Metrics.snapshot", ...)
    and resolves [Module.func] references against it. The repo-wide
    [(wrapped false)] dune convention makes a compilation unit's module
    name exactly its capitalized filename, which is what makes purely
    syntactic cross-module resolution viable here.

    Known imprecision (see DESIGN.md §10): functors, first-class
    modules, module aliases and [include] are not modeled — references
    through them fail to resolve and drop the corresponding call-graph
    edge. *)

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
}

val collect_files : string list -> string list
(** All [.ml] files under the given roots (files or directories),
    skipping [_build] and dot-directories, sorted. *)

val load : string list -> (string * string) list
(** [collect_files] plus contents, ready for {!build}. *)

val build : (string * string) list -> t
(** Build the model from [(path, text)] pairs. Files that fail to parse
    still appear in [files] with [f_err] set; their definitions are
    absent. *)

val find : t -> string -> def option

val resolve : t -> modpath:string list -> opens:string list -> string -> def option
(** Resolve a reference written [name] from inside [modpath] with
    [opens] in force: innermost enclosing module first, then opened
    modules, then the name as an absolute path. *)

(** {2 Parsetree helpers shared with {!Program}} *)

val lid_to_string : Longident.t -> string option
val ident_of : Parsetree.expression -> string option
val last_component : string -> string
val strip_constraint : Parsetree.expression -> Parsetree.expression
val pat_name : Parsetree.pattern -> string option
val pat_vars : Parsetree.pattern -> string list
