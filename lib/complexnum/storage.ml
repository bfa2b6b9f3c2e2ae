(* Precision-abstracted flat complex storage ("the array" in FlatDD).

   Amplitudes live interleaved — element [2i] is the real part and [2i+1]
   the imaginary part of amplitude [i] — in one Bigarray.Array1, which is
   the closest OCaml equivalent of the paper's aligned [double2] arrays and
   is directly addressable from C (the data pointer is a raw, GC-stable
   malloc'd block).

   Two precisions are provided: [F64] (the default, bit-compatible with the
   old float-array [Buf]) and [F32] (half the bytes per amplitude; stores
   round to nearest float32, loads widen back to double, so all arithmetic
   still happens in double precision).

   Layout note: the stripe kernels (scaling, summation, zeroing, norm,
   the dense 2x2/4x4 gate kernels, the DMAV Run recursion and the
   DD->array walk) are C stubs
   in kernels_stubs.c, bound per element type in Core64/Core32. The
   shared API, with every range check made before a stub is called, is
   layered on top once, in [Extend]. *)

(* The bigarray custom block on 64-bit: block header (8) + custom_operations
   pointer (8) + struct caml_ba_array {data ptr, num_dims, flags, proxy,
   dim[1]} (40) = 64 bytes of overhead before the payload. *)
let bigarray_header_bytes = 64

external c_dense_lanes : unit -> int = "qcs_dense_lanes" [@@noalloc]
external c_testing_set_lanes : int -> unit = "qcs_testing_set_lanes" [@@noalloc]

(* 8 when kernels_stubs.c's load-time check found AVX-512F, else 4 when
   it found AVX2, else 2. *)
let dense_lanes = c_dense_lanes ()

module Testing = struct
  let lanes = List.filter (fun l -> l <= dense_lanes) [ 2; 4; 8 ]

  let with_lanes l f =
    if not (List.mem l lanes) then invalid_arg "Storage.Testing.with_lanes: not a body of this host";
    c_testing_set_lanes l;
    Fun.protect ~finally:(fun () -> c_testing_set_lanes dense_lanes) f
end

(* The raw matrix-DD arena window the DMAV Run stub walks; [Dd.view] is
   this type. *)
type arena = {
  lv : int array;
  ch : int array;
  re : float array;
  im : float array;
  ident : int array;
}

(* What differs per element kind: the kind itself, the unboxed element
   accessors (OCaml only emits a direct bigarray load when the kind is
   statically known at the access site) and the C kernels of
   kernels_stubs.c instantiated for that element type. The [c_*] stubs
   check nothing; [Extend] wraps each with its range checks. *)
module type CORE = sig
  type elt
  type buffer = (float, elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { data : buffer; len : int }

  val kind : (float, elt) Bigarray.kind
  val label : string
  val bytes_per_float : int
  val get_re : t -> int -> float
  val get_im : t -> int -> float
  val set2 : t -> int -> float -> float -> unit
  val c_scale2_into : buffer -> int -> buffer -> int -> int -> float -> float -> unit
  val c_add_into : buffer -> int -> buffer -> int -> int -> unit
  val c_fill_zero_range : buffer -> int -> int -> unit
  val c_norm2 : buffer -> int -> float
  val c_dense_single : buffer -> float array -> int -> int -> int -> int -> unit
  val c_local : buffer -> float array -> int -> int -> int -> int -> int -> int -> int -> unit
  val c_dmav_run : arena -> int -> buffer -> buffer -> int -> int -> float -> float -> unit
end

module Core64 = struct
  type elt = Bigarray.float64_elt
  type buffer = (float, elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { data : buffer; len : int }

  let kind : (float, elt) Bigarray.kind = Bigarray.float64
  let label = "f64"
  let bytes_per_float = 8
  let get_re t i = t.data.{2 * i}
  let get_im t i = t.data.{(2 * i) + 1}

  let set2 t i re im =
    t.data.{2 * i} <- re;
    t.data.{(2 * i) + 1} <- im

  external c_scale2_into :
    buffer -> int -> buffer -> int -> int -> (float[@unboxed]) -> (float[@unboxed]) -> unit
    = "qcs_scale2_into_f64_byte" "qcs_scale2_into_f64" [@@noalloc]
  external c_add_into : buffer -> int -> buffer -> int -> int -> unit = "qcs_add_into_f64"
  [@@noalloc]
  external c_fill_zero_range : buffer -> int -> int -> unit = "qcs_fill_zero_range_f64"
  [@@noalloc]
  external c_norm2 : buffer -> int -> (float[@unboxed])
    = "qcs_norm2_f64_byte" "qcs_norm2_f64" [@@noalloc]
  external c_dense_single : buffer -> float array -> int -> int -> int -> int -> unit
    = "qcs_dense_single_f64_byte" "qcs_dense_single_f64" [@@noalloc]
  external c_local : buffer -> float array -> int -> int -> int -> int -> int -> int -> int -> unit
    = "qcs_local_f64_byte" "qcs_local_f64" [@@noalloc]
  external c_dmav_run :
    arena -> int -> buffer -> buffer -> int -> int -> (float[@unboxed]) -> (float[@unboxed]) -> unit
    = "qcs_dmav_run_f64_byte" "qcs_dmav_run_f64" [@@noalloc]
end

module Core32 = struct
  type elt = Bigarray.float32_elt
  type buffer = (float, elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { data : buffer; len : int }

  let kind : (float, elt) Bigarray.kind = Bigarray.float32
  let label = "f32"
  let bytes_per_float = 4
  let get_re t i = t.data.{2 * i}
  let get_im t i = t.data.{(2 * i) + 1}

  let set2 t i re im =
    t.data.{2 * i} <- re;
    t.data.{(2 * i) + 1} <- im

  external c_scale2_into :
    buffer -> int -> buffer -> int -> int -> (float[@unboxed]) -> (float[@unboxed]) -> unit
    = "qcs_scale2_into_f32_byte" "qcs_scale2_into_f32" [@@noalloc]
  external c_add_into : buffer -> int -> buffer -> int -> int -> unit = "qcs_add_into_f32"
  [@@noalloc]
  external c_fill_zero_range : buffer -> int -> int -> unit = "qcs_fill_zero_range_f32"
  [@@noalloc]
  external c_norm2 : buffer -> int -> (float[@unboxed])
    = "qcs_norm2_f32_byte" "qcs_norm2_f32" [@@noalloc]
  external c_dense_single : buffer -> float array -> int -> int -> int -> int -> unit
    = "qcs_dense_single_f32_byte" "qcs_dense_single_f32" [@@noalloc]
  external c_local : buffer -> float array -> int -> int -> int -> int -> int -> int -> int -> unit
    = "qcs_local_f32_byte" "qcs_local_f32" [@@noalloc]
  external c_dmav_run :
    arena -> int -> buffer -> buffer -> int -> int -> (float[@unboxed]) -> (float[@unboxed]) -> unit
    = "qcs_dmav_run_f32_byte" "qcs_dmav_run_f32" [@@noalloc]
end

module type S = sig
  type elt
  type buffer = (float, elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = private { data : buffer; len : int }

  val kind : (float, elt) Bigarray.kind
  val label : string
  val bytes_per_float : int
  val buffer_bytes : len:int -> int
  val create : int -> t
  val init : int -> (int -> Cnum.t) -> t
  val length : t -> int
  val get : t -> int -> Cnum.t
  val set : t -> int -> Cnum.t -> unit
  val get_re : t -> int -> float
  val get_im : t -> int -> float
  val set2 : t -> int -> float -> float -> unit
  val fill_zero_range : t -> pos:int -> len:int -> unit
  val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

  val scale_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> Cnum.t -> unit

  val scale2_into :
    src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> sre:float -> sim:float -> unit

  val add_into : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

  val dense_single : t -> float array -> target:int -> cmask:int -> lo:int -> hi:int -> unit
  val local_apply :
    t -> float array -> major:int -> minor:int -> cmask:int -> held:int -> paths:int -> lo:int ->
    hi:int -> unit

  val dmav_run :
    arena -> node:int -> v:t -> w:t -> iv:int -> iw:int -> fre:float -> fim:float -> unit

  val copy : t -> t
  val norm2 : t -> float
  val max_abs_diff : t -> t -> float
  val to_array : t -> Cnum.t array
  val of_array : Cnum.t array -> t
  val memory_bytes : t -> int
end

module Extend (C : CORE) = struct
  include C

  let buffer_bytes ~len = (2 * len * C.bytes_per_float) + bigarray_header_bytes

  (* A [len]-amplitude buffer whose payload is left as malloc gave it:
     only for a caller that writes every element before anything reads
     one, so the buffer costs no zeroing pass. *)
  let uninit len =
    if len < 0 then invalid_arg "Buf.create";
    { data = Bigarray.Array1.create C.kind Bigarray.c_layout (2 * len); len }

  let create len =
    let t = uninit len in
    Bigarray.Array1.fill t.data 0.0;
    t

  let length t = t.len
  let get t i = { Cnum.re = get_re t i; im = get_im t i }
  let set t i (c : Cnum.t) = set2 t i c.re c.im

  let init len f =
    let t = create len in
    for i = 0 to len - 1 do
      set t i (f i)
    done;
    t

  (* Every check happens here, before the call crosses into C: the stubs
     trust their ranges. The failure message is built only on failure. *)
  let check_range name t ~pos ~len =
    if pos < 0 || len < 0 || pos > t.len - len then
      invalid_arg ("Storage." ^ name ^ ": range out of bounds")

  let fill_zero_range t ~pos ~len =
    check_range "fill_zero_range" t ~pos ~len;
    C.c_fill_zero_range t.data pos len

  let blit ~src ~src_pos ~dst ~dst_pos ~len =
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.data (2 * src_pos) (2 * len))
      (Bigarray.Array1.sub dst.data (2 * dst_pos) (2 * len))

  let scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre ~sim =
    check_range "scale2_into" src ~pos:src_pos ~len;
    check_range "scale2_into" dst ~pos:dst_pos ~len;
    C.c_scale2_into src.data src_pos dst.data dst_pos len sre sim

  let add_into ~src ~src_pos ~dst ~dst_pos ~len =
    check_range "add_into" src ~pos:src_pos ~len;
    check_range "add_into" dst ~pos:dst_pos ~len;
    C.c_add_into src.data src_pos dst.data dst_pos len

  let scale_into ~src ~src_pos ~dst ~dst_pos ~len (s : Cnum.t) =
    scale2_into ~src ~src_pos ~dst ~dst_pos ~len ~sre:s.re ~sim:s.im

  let norm2 t = C.c_norm2 t.data t.len

  let dense_single t m ~target ~cmask ~lo ~hi =
    if Array.length m <> 8 || not (Bits.is_pow2 t.len) || t.len < 2 then
      invalid_arg "Storage.dense_single: bad matrix or length";
    if target < 0 || target >= 62 || 1 lsl target >= t.len || cmask < 0 || cmask >= t.len
       || (cmask lsr target) land 1 = 1
    then invalid_arg "Storage.dense_single: bad target or control mask";
    if lo < 0 || lo > hi || hi > t.len lsr (1 + Bits.popcount cmask) then
      invalid_arg "Storage.dense_single: stripe out of bounds";
    C.c_dense_single t.data m target cmask lo hi

  let local_apply t m ~major ~minor ~cmask ~held ~paths ~lo ~hi =
    if (not (Bits.is_pow2 t.len)) || (not (Bits.is_pow2 minor)) || minor >= t.len
       || (major <> 0 && ((not (Bits.is_pow2 major)) || major >= t.len || major = minor))
       || cmask < 0 || cmask >= t.len || cmask land (major lor minor) <> 0
       || held < 0 || held >= t.len || held land (major lor minor lor cmask) <> 0
    then invalid_arg "Storage.local_apply: bad bits";
    let s = if major = 0 then 1 else 2 in
    if Array.length m <> 2 lsl (2 * s) || paths < 0 || paths >= 1 lsl (1 lsl (2 * s)) then
      invalid_arg "Storage.local_apply: bad matrix";
    if lo < 0 || lo > hi || hi > t.len lsr (s + Bits.popcount (cmask lor held)) then
      invalid_arg "Storage.local_apply: groups out of bounds";
    C.c_local t.data m major minor cmask held paths lo hi

  (* Only the root task's extent is checked: the children of a node sit
     at lower levels of the same arena, so the whole walk stays inside
     the root's 2^(level+1) rows and columns. *)
  let dmav_run (a : arena) ~node ~v ~w ~iv ~iw ~fre ~fim =
    if node < 0 || node >= Array.length a.lv || (4 * node) + 3 >= Array.length a.ch then
      invalid_arg "Storage.dmav_run: node outside the arena";
    let level = a.lv.(node) in
    if node <> 0 && (level < 0 || level > 61) then
      invalid_arg "Storage.dmav_run: not a live matrix node";
    let span = if node = 0 then 1 else 1 lsl (level + 1) in
    check_range "dmav_run" v ~pos:iv ~len:span;
    check_range "dmav_run" w ~pos:iw ~len:span;
    C.c_dmav_run a node v.data w.data iv iw fre fim

  let copy t =
    let r = create t.len in
    blit ~src:t ~src_pos:0 ~dst:r ~dst_pos:0 ~len:t.len;
    r

  let max_abs_diff a b =
    if a.len <> b.len then invalid_arg "Buf.max_abs_diff: length mismatch";
    let worst = ref 0.0 in
    for i = 0 to a.len - 1 do
      let dre = get_re a i -. get_re b i in
      let dim = get_im a i -. get_im b i in
      let d = sqrt ((dre *. dre) +. (dim *. dim)) in
      if d > !worst then worst := d
    done;
    !worst

  let to_array t = Array.init t.len (get t)

  let of_array a =
    let t = create (Array.length a) in
    Array.iteri (set t) a;
    t

  (* Exact: payload bytes from the element kind, plus the bigarray custom
     block (64 bytes) and the {data; len} record (3 words). *)
  let memory_bytes t = buffer_bytes ~len:t.len + 24
end

module F64 = Extend (Core64)
module F32 = Extend (Core32)

external c_convert :
  arena -> int -> Core64.buffer -> int -> (float[@unboxed]) -> (float[@unboxed]) -> bool -> unit
  = "qcs_convert_byte" "qcs_convert" [@@noalloc]

(* As [dmav_run], only the root's extent is checked: a vector node's
   children sit one level down, inside its 2^(level+1) amplitudes. *)
let convert (a : arena) ~node (buf : F64.t) ~pos ~wre ~wim ~fills =
  if node < 0 || node >= Array.length a.lv || (2 * node) + 1 >= Array.length a.ch then
    invalid_arg "Storage.convert: node outside the arena";
  let level = a.lv.(node) in
  if node <> 0 && (level < 0 || level > 61) then
    invalid_arg "Storage.convert: not a live vector node";
  let span = if node = 0 then 1 else 1 lsl (level + 1) in
  if pos < 0 || pos > buf.F64.len - span then invalid_arg "Storage.convert: range out of bounds";
  c_convert a node buf.F64.data pos wre wim fills

(* Both element kinds are statically known here, so the loops compile to
   direct loads and rounding stores, allocating nothing per element. Each
   loop writes every element of its destination. *)
let demote (src : F64.t) : F32.t =
  let dst = F32.uninit (F64.length src) in
  let s = src.F64.data and d = dst.F32.data in
  for k = 0 to Bigarray.Array1.dim s - 1 do
    d.{k} <- s.{k}
  done;
  dst

let promote ?into (src : F32.t) : F64.t =
  let dst =
    match into with
    | None -> F64.uninit (F32.length src)
    | Some dst ->
      if F64.length dst <> F32.length src then invalid_arg "Storage.promote: length mismatch";
      dst
  in
  let s = src.F32.data and d = dst.F64.data in
  for k = 0 to Bigarray.Array1.dim s - 1 do
    d.{k} <- s.{k}
  done;
  dst
