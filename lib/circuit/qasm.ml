type program = {
  circuit : Circuit.t;
  measurements : (int * int) list;
  num_clbits : int;
}

exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error { line; message = m })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Id of string
  | Real of float
  | Int of int
  | Str of string
  | Sym of char          (* ; , ( ) [ ] { } + * / ^ *)
  | Minus
  | Arrow                (* -> *)
  | Eof

type lexed = { tok : token; tline : int }

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let pos = ref 0 in
  let advance () = incr pos in
  let emit tok = toks := { tok; tline = !line } :: !toks in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin incr line; advance () end
    else if c = ' ' || c = '\t' || c = '\r' then advance ()
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then begin
      while !pos < n && src.[!pos] <> '\n' do advance () done
    end
    else if is_digit c || (c = '.' && !pos + 1 < n && is_digit src.[!pos + 1]) then begin
      let start = !pos in
      let is_float = ref false in
      while
        !pos < n
        && (is_digit src.[!pos] || src.[!pos] = '.' || src.[!pos] = 'e'
            || src.[!pos] = 'E'
            || ((src.[!pos] = '+' || src.[!pos] = '-')
                && !pos > start
                && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
      do
        if not (is_digit src.[!pos]) then is_float := true;
        advance ()
      done;
      let text = String.sub src start (!pos - start) in
      if !is_float then emit (Real (float_of_string text))
      else emit (Int (int_of_string text))
    end
    else if is_alpha c then begin
      let start = !pos in
      while !pos < n && (is_alpha src.[!pos] || is_digit src.[!pos]) do advance () done;
      emit (Id (String.sub src start (!pos - start)))
    end
    else if c = '"' then begin
      advance ();
      let start = !pos in
      while !pos < n && src.[!pos] <> '"' do advance () done;
      if !pos >= n then fail !line "unterminated string";
      emit (Str (String.sub src start (!pos - start)));
      advance ()
    end
    else if c = '-' then begin
      if !pos + 1 < n && src.[!pos + 1] = '>' then begin
        emit Arrow; advance (); advance ()
      end
      else begin emit Minus; advance () end
    end
    else
      match c with
      | ';' | ',' | '(' | ')' | '[' | ']' | '{' | '}' | '+' | '*' | '/' | '^' ->
        emit (Sym c); advance ()
      | _ -> fail !line "unexpected character %C" c
  done;
  emit Eof;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { toks : lexed array; mutable cur : int }

let peek st = st.toks.(st.cur).tok
let line_of st = st.toks.(st.cur).tline
let next st =
  let t = st.toks.(st.cur) in
  if t.tok <> Eof then st.cur <- st.cur + 1;
  t.tok

let expect_sym st c =
  match next st with
  | Sym c' when c' = c -> ()
  | _ -> fail (line_of st) "expected '%c'" c

let expect_id st =
  match next st with
  | Id s -> s
  | _ -> fail (line_of st) "expected identifier"

let expect_int st =
  match next st with
  | Int i -> i
  | _ -> fail (line_of st) "expected integer"

(* ------------------------------------------------------------------ *)
(* Expressions over gate parameters                                    *)
(* ------------------------------------------------------------------ *)

(* Parse into floats directly; [env] binds formal parameter names during
   macro expansion. *)
let rec parse_expr st env = parse_add st env

and parse_add st env =
  let v = ref (parse_mul st env) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Sym '+' -> ignore (next st); v := !v +. parse_mul st env
    | Minus -> ignore (next st); v := !v -. parse_mul st env
    | _ -> continue := false
  done;
  !v

and parse_mul st env =
  let v = ref (parse_pow st env) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Sym '*' -> ignore (next st); v := !v *. parse_pow st env
    | Sym '/' -> ignore (next st); v := !v /. parse_pow st env
    | _ -> continue := false
  done;
  !v

and parse_pow st env =
  let base = parse_unary st env in
  match peek st with
  | Sym '^' ->
    ignore (next st);
    Float.pow base (parse_pow st env)
  | _ -> base

and parse_unary st env =
  match peek st with
  | Minus -> ignore (next st); -.parse_unary st env
  | Sym '+' -> ignore (next st); parse_unary st env
  | _ -> parse_atom st env

and parse_atom st env =
  match next st with
  | Real r -> r
  | Int i -> float_of_int i
  | Sym '(' ->
    let v = parse_expr st env in
    expect_sym st ')';
    v
  | Id "pi" -> Float.pi
  | Id fn when peek st = Sym '(' &&
               List.mem fn [ "sin"; "cos"; "tan"; "exp"; "ln"; "sqrt" ] ->
    expect_sym st '(';
    let v = parse_expr st env in
    expect_sym st ')';
    (match fn with
     | "sin" -> sin v
     | "cos" -> cos v
     | "tan" -> tan v
     | "exp" -> exp v
     | "ln" -> log v
     | _ -> sqrt v)
  | Id name ->
    (match List.assoc_opt name env with
     | Some v -> v
     | None -> fail (line_of st) "unknown parameter %s" name)
  | _ -> fail (line_of st) "expected expression"

(* ------------------------------------------------------------------ *)
(* Program structure                                                   *)
(* ------------------------------------------------------------------ *)

(* An argument is a full register or one element of one. *)
type arg = { reg : string; index : int option }

let parse_arg st =
  let reg = expect_id st in
  match peek st with
  | Sym '[' ->
    ignore (next st);
    let i = expect_int st in
    expect_sym st ']';
    { reg; index = Some i }
  | _ -> { reg; index = None }

(* Raw statements inside a custom gate body; qubit args refer to the gate's
   formal qubit names, parameters to its formal parameter names. *)
type body_stmt = {
  bs_line : int;
  bs_name : string;
  bs_params : int;              (* token index where the param list starts, or -1 *)
  bs_params_end : int;
  bs_args : string list;
}

type gate_def = {
  gd_params : string list;
  gd_qargs : string list;
  gd_body : body_stmt list;
}

type state = {
  builder : Circuit.Builder.b;
  qregs : (string * (int * int)) list;  (* name -> (offset, size) *)
  cregs : (string * (int * int)) list;
  defs : (string, gate_def) Hashtbl.t;
  mutable measures : (int * int) list;
}

(* Built-in (qelib1-level) gates: name -> (#params, #qubits, emit). *)
let apply_builtin state line name (params : float list) (qubits : int list) =
  let b = state.builder in
  let p i = List.nth params i in
  let q i = List.nth qubits i in
  let module B = Circuit.Builder in
  match name, List.length params, List.length qubits with
  | ("U" | "u" | "u3"), 3, 1 -> B.u3 b (p 0) (p 1) (p 2) (q 0); true
  | "u2", 2, 1 -> B.u2 b (p 0) (p 1) (q 0); true
  | ("u1" | "p" | "phase"), 1, 1 -> B.phase b (p 0) (q 0); true
  | ("CX" | "cx" | "cnot"), 0, 2 -> B.cx b ~control:(q 0) ~target:(q 1); true
  | ("id" | "u0"), _, 1 -> true
  | "x", 0, 1 -> B.x b (q 0); true
  | "y", 0, 1 -> B.y b (q 0); true
  | "z", 0, 1 -> B.z b (q 0); true
  | "h", 0, 1 -> B.h b (q 0); true
  | "s", 0, 1 -> B.s b (q 0); true
  | "sdg", 0, 1 -> B.sdg b (q 0); true
  | "t", 0, 1 -> B.t b (q 0); true
  | "tdg", 0, 1 -> B.tdg b (q 0); true
  | "sx", 0, 1 -> B.sx b (q 0); true
  | "rx", 1, 1 -> B.rx b (p 0) (q 0); true
  | "ry", 1, 1 -> B.ry b (p 0) (q 0); true
  | "rz", 1, 1 -> B.rz b (p 0) (q 0); true
  | "cz", 0, 2 -> B.cz b ~control:(q 0) ~target:(q 1); true
  | "cy", 0, 2 -> B.cy b ~control:(q 0) ~target:(q 1); true
  | "ch", 0, 2 -> B.single b ~controls:[ q 0 ] "ch" Gate.h (q 1); true
  | "ccx", 0, 3 -> B.ccx b ~c1:(q 0) ~c2:(q 1) ~target:(q 2); true
  | "crz", 1, 2 -> B.crz b (p 0) ~control:(q 0) ~target:(q 1); true
  | ("cu1" | "cp"), 1, 2 -> B.cp b (p 0) ~control:(q 0) ~target:(q 1); true
  | "cu3", 3, 2 ->
    B.single b ~controls:[ q 0 ] "cu3" (Gate.u3 (p 0) (p 1) (p 2)) (q 1); true
  | "swap", 0, 2 -> B.swap b (q 0) (q 1); true
  | "cswap", 0, 3 -> B.cswap b ~control:(q 0) (q 1) (q 2); true
  | "rzz", 1, 2 ->
    (* rzz(t) = cx; rz(t) on target; cx *)
    B.cx b ~control:(q 0) ~target:(q 1);
    B.rz b (p 0) (q 1);
    B.cx b ~control:(q 0) ~target:(q 1);
    true
  | "iswap", 0, 2 -> B.iswap b (q 0) (q 1); true
  | _, _, _ ->
    if Hashtbl.mem state.defs name then false
    else fail line "unknown gate %s with %d params on %d qubits"
        name (List.length params) (List.length qubits)

(* Parameter lists inside macro bodies are recorded as token ranges and
   re-parsed at each expansion with the macro's parameter environment. *)
let parse_param_list st env stop =
  let vs = ref [] in
  let continue = ref true in
  while !continue && st.cur < stop do
    vs := parse_expr st env :: !vs;
    match peek st with
    | Sym ',' -> ignore (next st)
    | _ -> continue := false
  done;
  List.rev !vs

let resolve_qubits state line args =
  (* Broadcast semantics: full-register args must share one size; indexed
     args are replicated. Returns the list of concrete qubit tuples. *)
  let lookup reg =
    match List.assoc_opt reg state.qregs with
    | Some r -> r
    | None -> fail line "unknown quantum register %s" reg
  in
  let sizes =
    List.filter_map
      (fun a -> if a.index = None then Some (snd (lookup a.reg)) else None)
      args
  in
  let width =
    match sizes with
    | [] -> 1
    | s :: rest ->
      List.iter (fun s' -> if s' <> s then fail line "register size mismatch") rest;
      s
  in
  List.init width (fun k ->
      List.map
        (fun a ->
           let offset, size = lookup a.reg in
           match a.index with
           | Some i ->
             if i < 0 || i >= size then fail line "index %d out of range for %s" i a.reg;
             offset + i
           | None -> offset + k)
        args)

let parse ?(name = "qasm") src =
  let toks = lex src in
  let st = { toks; cur = 0 } in
  (* First pass: find total qubit count from qreg declarations so the
     builder can be created before the first gate. We scan tokens. *)
  let total_qubits = ref 0 and past_bound = ref 1 in
  Array.iteri
    (fun i t ->
       match t.tok with
       | Id "qreg" when i + 3 < Array.length toks ->
         (match toks.(i + 2).tok, toks.(i + 3).tok with
          | Sym '[', Int sz ->
            if !total_qubits <= Circuit.max_qubits then past_bound := t.tline;
            total_qubits := !total_qubits + sz
          | _ -> ())
       | _ -> ())
    toks;
  if !total_qubits = 0 then fail 1 "no qreg declaration found";
  (* A register past the bound is blamed on the declaration that
     crossed it. *)
  let builder =
    try Circuit.Builder.create ~name !total_qubits
    with Invalid_argument m -> fail !past_bound "qreg declarations total %s" m
  in
  let state =
    { builder;
      qregs = [];
      cregs = [];
      defs = Hashtbl.create 16;
      measures = [] }
  in
  let state = ref state in
  let qoffset = ref 0 and coffset = ref 0 in

  (* Local re-implementation of macro expansion that closes over [toks]
     (avoiding the placeholder [state_toks] above). *)
  let rec apply line gname params qubits =
    if List.length (List.sort_uniq Int.compare qubits) <> List.length qubits then
      fail line "repeated qubit argument in %s" gname;
    List.iter
      (fun p ->
         if not (Float.is_finite p) then
           fail line "parameter %s of %s is not finite"
             (if Float.is_nan p then "nan" else string_of_float p) gname)
      params;
    if not (apply_builtin !state line gname params qubits) then begin
      let def = Hashtbl.find !state.defs gname in
      if List.length def.gd_params <> List.length params then
        fail line "gate %s expects %d parameters" gname (List.length def.gd_params);
      if List.length def.gd_qargs <> List.length qubits then
        fail line "gate %s expects %d qubits" gname (List.length def.gd_qargs);
      let penv = List.combine def.gd_params params in
      let qenv = List.combine def.gd_qargs qubits in
      List.iter
        (fun bs ->
           let sub_params =
             if bs.bs_params < 0 then []
             else
               parse_param_list { toks; cur = bs.bs_params } penv bs.bs_params_end
           in
           let sub_qubits =
             List.map
               (fun a ->
                  match List.assoc_opt a qenv with
                  | Some q -> q
                  | None -> fail bs.bs_line "unknown qubit %s in gate body" a)
               bs.bs_args
           in
           apply bs.bs_line bs.bs_name sub_params sub_qubits)
        def.gd_body
    end
  in

  (* Header *)
  (match peek st with
   | Id "OPENQASM" ->
     ignore (next st);
     (match next st with Real _ | Int _ -> () | _ -> fail (line_of st) "bad version");
     expect_sym st ';'
   | _ -> ());

  let continue = ref true in
  while !continue do
    match peek st with
    | Eof -> continue := false
    | Id "include" ->
      ignore (next st);
      (match next st with
       | Str _ -> ()
       | _ -> fail (line_of st) "expected include path");
      expect_sym st ';'
    | Id "qreg" ->
      ignore (next st);
      let rname = expect_id st in
      expect_sym st '[';
      let sz = expect_int st in
      expect_sym st ']';
      expect_sym st ';';
      state := { !state with qregs = !state.qregs @ [ (rname, (!qoffset, sz)) ] };
      qoffset := !qoffset + sz
    | Id "creg" ->
      ignore (next st);
      let rname = expect_id st in
      expect_sym st '[';
      let sz = expect_int st in
      expect_sym st ']';
      expect_sym st ';';
      state := { !state with cregs = !state.cregs @ [ (rname, (!coffset, sz)) ] };
      coffset := !coffset + sz
    | Id "barrier" ->
      ignore (next st);
      let rec skip () =
        match next st with
        | Sym ';' -> ()
        | Eof -> fail (line_of st) "unterminated barrier"
        | _ -> skip ()
      in
      skip ()
    | Id "measure" ->
      let line = line_of st in
      ignore (next st);
      let qa = parse_arg st in
      (match next st with
       | Arrow -> ()
       | _ -> fail line "expected -> in measure");
      let ca = parse_arg st in
      expect_sym st ';';
      let qoff, qsz =
        match List.assoc_opt qa.reg !state.qregs with
        | Some r -> r
        | None -> fail line "unknown quantum register %s" qa.reg
      in
      let coff, csz =
        match List.assoc_opt ca.reg !state.cregs with
        | Some r -> r
        | None -> fail line "unknown classical register %s" ca.reg
      in
      (match qa.index, ca.index with
       | Some qi, Some ci ->
         !state.measures <- (qoff + qi, coff + ci) :: !state.measures
       | None, None ->
         if qsz <> csz then fail line "measure size mismatch";
         for k = 0 to qsz - 1 do
           !state.measures <- (qoff + k, coff + k) :: !state.measures
         done
       | _ -> fail line "measure must be all-indexed or all-register")
    | Id "reset" -> fail (line_of st) "reset is not supported (strong simulation)"
    | Id "if" -> fail (line_of st) "classical control is not supported"
    | Id "opaque" -> fail (line_of st) "opaque gates are not supported"
    | Id "gate" ->
      ignore (next st);
      let gname = expect_id st in
      let params =
        match peek st with
        | Sym '(' ->
          ignore (next st);
          let rec go acc =
            match peek st with
            | Sym ')' -> ignore (next st); List.rev acc
            | _ ->
              let p = expect_id st in
              (match peek st with
               | Sym ',' -> ignore (next st); go (p :: acc)
               | _ -> go (p :: acc))
          in
          go []
        | _ -> []
      in
      let rec qargs acc =
        let q = expect_id st in
        match peek st with
        | Sym ',' -> ignore (next st); qargs (q :: acc)
        | _ -> List.rev (q :: acc)
      in
      let qargs = qargs [] in
      expect_sym st '{';
      let body = ref [] in
      let body_loop = ref true in
      while !body_loop do
        match peek st with
        | Sym '}' -> ignore (next st); body_loop := false
        | Eof -> fail (line_of st) "unterminated gate body"
        | Id "barrier" ->
          let rec skip () =
            match next st with Sym ';' -> () | Eof -> fail (line_of st) "eof" | _ -> skip ()
          in
          skip ()
        | Id bname ->
          let bline = line_of st in
          ignore (next st);
          let pstart, pend =
            match peek st with
            | Sym '(' ->
              ignore (next st);
              let start = st.cur in
              let depth = ref 1 in
              while !depth > 0 do
                match next st with
                | Sym '(' -> incr depth
                | Sym ')' -> decr depth
                | Eof -> fail bline "unterminated parameter list"
                | _ -> ()
              done;
              (start, st.cur - 1)
            | _ -> (-1, -1)
          in
          let rec args acc =
            let a = expect_id st in
            match peek st with
            | Sym ',' -> ignore (next st); args (a :: acc)
            | _ -> List.rev (a :: acc)
          in
          let args = args [] in
          expect_sym st ';';
          body := { bs_line = bline; bs_name = bname; bs_params = pstart;
                    bs_params_end = pend; bs_args = args } :: !body
        | _ -> fail (line_of st) "unexpected token in gate body"
      done;
      Hashtbl.replace !state.defs gname
        { gd_params = params; gd_qargs = qargs; gd_body = List.rev !body }
    | Id _ ->
      (* Gate application. *)
      let line = line_of st in
      let gname = expect_id st in
      let params =
        match peek st with
        | Sym '(' ->
          ignore (next st);
          let rec go acc =
            match peek st with
            | Sym ')' -> ignore (next st); List.rev acc
            | _ ->
              let v = parse_expr st [] in
              (match peek st with
               | Sym ',' -> ignore (next st)
               | _ -> ());
              go (v :: acc)
          in
          go []
        | _ -> []
      in
      let rec args acc =
        let a = parse_arg st in
        match peek st with
        | Sym ',' -> ignore (next st); args (a :: acc)
        | _ -> List.rev (a :: acc)
      in
      let args = args [] in
      expect_sym st ';';
      let tuples = resolve_qubits !state line args in
      List.iter (fun qubits -> apply line gname params qubits) tuples
    | _ -> fail (line_of st) "unexpected token"
  done;
  { circuit = Circuit.Builder.finish !state.builder;
    measurements = List.rev !state.measures;
    num_clbits = !coffset }

let of_string ?name src = parse ?name src

let of_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse ~name:(Filename.basename path) src

let pp_error fmt = function
  | Parse_error { line; message } -> Format.fprintf fmt "QASM parse error (line %d): %s" line message
  | e -> raise e
