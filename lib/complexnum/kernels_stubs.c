/* Flat-phase inner loops over interleaved re/im amplitude planes, each
   written once as a macro body over the element type T and instantiated
   for double (f64 storage) and float (f32 storage). Loads widen to
   double, arithmetic runs in double, only the stores round to T. Every
   expression keeps the operand order of the OCaml reference kernels;
   with -ffp-contract=off and no reassociation the results are
   bit-identical to them.

   The dense single-qubit kernel holds an amplitude in one 16-byte
   vector, lane 0 its real part and lane 1 its imaginary part. A complex
   product u x is (ur x) + (sg ui) swap(x) with sg = (-1, +1): lane 0 is
   ur re + (-ui) im, lane 1 is ur im + ui re. The bytes are the scalar
   ones: IEEE defines x - y as x + (-y), -1 ui is exact, (-ui) im is
   -(ui im) exactly because round-to-nearest is symmetric in sign, each
   row adds its four terms in the scalar order, and -ffp-contract=off
   still rules out FMA. The kernel walks only the pairs that satisfy the
   controls. With fixed = cmask | target bit, a stripe's first index is
   lo with a zero inserted at each fixed position, lowest first; the next
   is ((i | fixed) + 1) & ~fixed, the increment's carry running through
   the fixed bits; the pair's low index is i | cmask.

   On x86-64 CPUs with AVX2 the kernel also has a 4-lane body: one
   32-byte vector (re0, im0, re1, im1) holds two consecutive controlled
   pairs' amplitudes, sg is (-1, +1, -1, +1), and the pair arithmetic is
   the same ROW expression as in the 2-lane body, so every lane still
   does the scalar operations in the scalar order and the bytes do not
   change (f32 widens four floats per load and rounds per lane on the
   store). It needs bit 0 free, i.e. neither the target nor a control on
   qubit 0: then pair k + 1 sits right after pair k, one load covers both,
   and the next even index is ((i | fixed) + 2) & ~fixed. A stripe's odd
   leading pair and its odd trailing pair go through the 2-lane body.
   With bit 0 fixed the 4-lane body still takes two consecutive pairs per
   step, each 32-byte vector built from two 16-byte halves.
   The body is compiled with target("avx2") (which does not enable FMA)
   and runs only if a load-time constructor finds AVX2 through
   __builtin_cpu_supports; dense_lanes records the choice (2 or 4) for
   Storage.dense_lanes. Everywhere else (bit 0 fixed, CPUs without AVX2,
   non-x86 hosts) the 2-lane loop is the only body.

   The local kernel is the local leg of a narrow gate: its matrix is
   the identity on all but one or two levels (its support), built from
   op matrices. It applies the gate's 2x2 or 4x4 matrix U in place,
   group by group (the 2 or 4 amplitudes over one index with the support
   bits 0), with Run's arithmetic: Run writes W row by row from +0, one
   MAC per terminal path, columns ascending, storing (rounding, at f32)
   after each MAC. So each output starts from +0 and adds u_rc x_c for
   the c whose entry is masked in (not 0) in ascending order, rounding
   to T after every term, with the term computed as Run's MAC computes
   it: lane 0 ur xre + (-ui) xim, lane 1 ur xim + ui xre. The 2-lane body does one
   group; the 4-lane body two, in one 32-byte vector per column: one
   load when bit 0 is outside the support (the groups are neighbours),
   two 16-byte halves when it is inside. The walk, the loads and the
   stores are the dense kernel's 4-lane walk; only the row arithmetic
   differs. A dense two-qubit gate is the local kernel with all 16 paths
   set, its qubits in the matrix's index order (major, minor).

   Contract with Storage.Core64/Core32: ranges, lengths and qubit indices
   are checked in OCaml before the call, the externals are [@@noalloc],
   and one call covers a pool stripe or a DMAV task. Nothing here
   allocates, raises or writes to the OCaml heap.

   The DMAV Run recurses once per root-to-node path, as in Algorithm 1,
   with two shortcuts that keep its bytes. The canonical identity node is
   one stripe. Below a pure-replication node, (e,0,0,e') or (0,e,e',0)
   with e and e' on the same target, Run walks the shared child once for
   a batch of up to BATCH_CAP paths. The batch buffer lives on the C
   stack (2 KB per level), because a [@@noalloc] stub has no failure
   path for malloc. The paths of a batch write disjoint W rows, because
   the two children of a replication node cover different row halves.
   So taking them one after another at each node gives every W element
   the MACs of the per-path recursion, in its order, with the same
   weight products and signed zeros. General nodes start no batch:
   grouping their children was bit-exact too, but 1.4x slower on the
   CNOT-ladder products that dominate dnn's Run time (4.6 -> 6.5 ms per
   gate at n = 16, one worker on a 2-core Xeon). */

#define CAML_NAME_SPACE
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>

/* A packed DD edge: low 31 bits target slot, high bits weight id
   (Node_store.pack). */
#define EDGE_TGT_BITS 31
#define EDGE_TGT(e) ((e) & ((1L << EDGE_TGT_BITS) - 1))
#define EDGE_WID(e) ((unsigned long)(e) >> EDGE_TGT_BITS)

/* Bits.insert_bit i k 0: a zero bit inserted at position k. */
static inline long insert_zero(long i, long k)
{
  long low_mask = (1L << k) - 1;
  return ((i & ~low_mask) << 1) | (i & low_mask);
}

/* Two doubles in one 16-byte vector (GCC/Clang vector extensions): an
   amplitude as (re, im). Lane-wise + and * are the scalar IEEE
   operations, so a lane reproduces the scalar expression it mirrors. */
typedef double v2d __attribute__((vector_size(16)));
typedef float v2f __attribute__((vector_size(8)));

/* The local kernel's loops over at most four rows and columns: fully
   unrolled, so each group's amplitudes stay in registers. */
#define UNROLL _Pragma("GCC unroll 4")

/* Row r of the dense butterfly on the low and high amplitudes x0, x1
   (s0, s1: their re/im swaps), at either vector width. g holds the gate
   as m's eight entries splatted, each imaginary part times sg. The four
   terms add in the scalar expression's order. */
#define ROW(g, r, x0, s0, x1, s1)                                             \
  (((((g)[4 * (r)] * (x0)) + ((g)[4 * (r) + 1] * (s0)))                      \
    + ((g)[4 * (r) + 2] * (x1))) + ((g)[4 * (r) + 3] * (s1)))

/* g for ROW from the gate's eight floats u: real parts times one, the
   imaginary parts times sg (a vector times a scalar splats the scalar);
   both products are exact. */
#define GATE(g, u, one, sg)                                                   \
  ((g)[0] = (one) * (u)[0], (g)[1] = (sg) * (u)[1], (g)[2] = (one) * (u)[2],  \
   (g)[3] = (sg) * (u)[3], (g)[4] = (one) * (u)[4], (g)[5] = (sg) * (u)[5],   \
   (g)[6] = (one) * (u)[6], (g)[7] = (sg) * (u)[7])

static inline v2d swap2(v2d x)
{
  v2d r = { x[1], x[0] };
  return r;
}

/* One amplitude in and out of a vector. f32 loads widen and stores
   round per lane, as the scalar (double) and (T) casts do. */
static inline v2d load2_f64(const double *p)
{
  v2d x;
  memcpy(&x, p, sizeof x);
  return x;
}

static inline void store2_f64(double *p, v2d x)
{
  memcpy(p, &x, sizeof x);
}

static inline v2d load2_f32(const float *p)
{
  v2f x;
  memcpy(&x, p, sizeof x);
  return __builtin_convertvector(x, v2d);
}

static inline void store2_f32(float *p, v2d x)
{
  v2f y = __builtin_convertvector(x, v2f);
  memcpy(p, &y, sizeof y);
}

/* A running sum rounded to T, as Run's store into W rounds it. */
static inline v2d round2_f64(v2d x)
{
  return x;
}

static inline v2d round2_f32(v2d x)
{
  return __builtin_convertvector(__builtin_convertvector(x, v2f), v2d);
}

/* Lanes of the dense kernel's widest body on this CPU: 4 once the
   constructor below has found AVX2, else 2. Written before main, only
   read afterwards. */
static long dense_lanes = 2;

value qcs_dense_lanes(value unit)
{
  (void)unit;
  return Val_long(dense_lanes);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define WIDE __attribute__((target("avx2")))

/* Two amplitudes, (re0, im0, re1, im1), in one 32-byte vector. */
typedef double v4d __attribute__((vector_size(32)));
typedef float v4f __attribute__((vector_size(16)));

__attribute__((constructor)) static void detect_dense_lanes(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) dense_lanes = 4;
}

WIDE static inline v4d swap4(v4d x)
{
  v4d r = { x[1], x[0], x[3], x[2] };
  return r;
}

WIDE static inline v4d load4_f64(const double *p)
{
  v4d x;
  memcpy(&x, p, sizeof x);
  return x;
}

WIDE static inline void store4_f64(double *p, v4d x)
{
  memcpy(p, &x, sizeof x);
}

/* Four floats widened by one vcvtps2pd: GCC 12 lowers the
   __builtin_convertvector form to two 128-bit converts and an insert,
   which made f32 gates 1.3x slower (n = 18, one thread of a 2-core AVX2
   Xeon). Widening is exact either way. */
WIDE static inline v4d load4_f32(const float *p)
{
  return (v4d)_mm256_cvtps_pd(_mm_loadu_ps(p));
}

WIDE static inline void store4_f32(float *p, v4d x)
{
  v4f y = __builtin_convertvector(x, v4f);
  memcpy(p, &y, sizeof y);
}

/* Two amplitudes from two addresses, one 16-byte half each: the 4-lane
   walk's vectors when the two groups of a step are not neighbours. */
WIDE static inline v4d load4x_f64(const double *p, const double *q)
{
  return (v4d)_mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p)),
                                    _mm_loadu_pd(q), 1);
}

WIDE static inline void store4x_f64(double *p, double *q, v4d x)
{
  _mm_storeu_pd(p, _mm256_castpd256_pd128((__m256d)x));
  _mm_storeu_pd(q, _mm256_extractf128_pd((__m256d)x, 1));
}

WIDE static inline v4d load4x_f32(const float *p, const float *q)
{
  __m128 lo = _mm_loadl_pi(_mm_setzero_ps(), (const __m64 *)p);
  return (v4d)_mm256_cvtps_pd(_mm_loadh_pi(lo, (const __m64 *)q));
}

WIDE static inline void store4x_f32(float *p, float *q, v4d x)
{
  __m128 y = _mm256_cvtpd_ps((__m256d)x);
  _mm_storel_pi((__m64 *)p, y);
  _mm_storeh_pi((__m64 *)q, y);
}

/* A running sum rounded to T, as Run's store into W rounds it: a no-op
   at f64, a round trip through float at f32 (vcvtpd2ps rounds to
   nearest, as the scalar (float) cast does). */
WIDE static inline v4d round4_f64(v4d x)
{
  return x;
}

WIDE static inline v4d round4_f32(v4d x)
{
  return (v4d)_mm256_cvtps_pd(_mm256_cvtpd_ps((__m256d)x));
}

#define WIDE_BODIES(T, SFX)                                                   \
  /* One output row of the local kernel for two groups at once: Run's     \
     MACs for the row, [row] holding a bit per column with a path. */       \
  WIDE static inline v4d local_row4_##SFX(const v4d *g, const v4d *x,         \
                                          const v4d *sw, int d, long row)     \
  {                                                                           \
    v4d acc = { 0.0, 0.0, 0.0, 0.0 };                                         \
    UNROLL                                                                    \
    for (int c = 0; c < d; c++)                                               \
      if ((row >> c) & 1)                                                     \
        acc = round4_##SFX(acc + ((g[2 * c] * x[c]) + (g[2 * c + 1] * sw[c]))); \
    return acc;                                                               \
  }                                                                           \
                                                                              \
  /* The 4-lane walk shared by the dense single-qubit kernel and the local   \
     kernel: [steps] steps of two groups each, a group being the d          \
     amplitudes at base + off[c], the base walking the indices whose        \
     [fixed] bits are 0, from i. Lanes 0-1 hold the first group's           \
     amplitude, lanes 2-3 the second's. With bit 0 free ([adj]) the two     \
     groups of a step are neighbours and one 32-byte load covers both;      \
     otherwise each vector is built from two 16-byte halves. [dense] picks  \
     the row arithmetic: the butterfly's ROW or the local kernel's          \
     running sums over [paths]. Returns the base after the last group. The  \
     constant arguments make each caller its own specialized loop. */      \
  WIDE static inline __attribute__((always_inline)) long wide_walk_##SFX(    \
      T *a, const v4d *g, const long *off, int d, long paths, int dense,      \
      int adj, long fixed, long i, long steps)                                \
  {                                                                           \
    /* The offsets in locals: a vector store may alias the caller's array,  \
       which would then be reloaded after every store. */                  \
    long o[4] = { off[0], off[1], d > 2 ? off[2] : 0, d > 2 ? off[3] : 0 };   \
    for (long s = 0; s < steps; s++) {                                        \
      long j = adj ? i + 1 : next_free(i, fixed);                             \
      v4d x[4], sw[4];                                                        \
      UNROLL                                                                  \
      for (int c = 0; c < d; c++) {                                           \
        T *p = a + 2 * (i + o[c]), *q = a + 2 * (j + o[c]);                   \
        x[c] = adj ? load4_##SFX(p) : load4x_##SFX(p, q);                     \
        sw[c] = swap4(x[c]);                                                  \
      }                                                                       \
      UNROLL                                                                  \
      for (int r = 0; r < d; r++) {                                           \
        v4d y = dense ? ROW(g, r, x[0], sw[0], x[1], sw[1])                   \
                      : local_row4_##SFX(g + 2 * d * r, x, sw, d,             \
                                         (paths >> (d * r)) & ((1 << d) - 1)); \
        T *p = a + 2 * (i + o[r]), *q = a + 2 * (j + o[r]);                   \
        if (adj)                                                              \
          store4_##SFX(p, y);                                                 \
        else                                                                  \
          store4x_##SFX(p, q, y);                                             \
      }                                                                       \
      i = next_free(j, fixed);                                                \
    }                                                                         \
    return i;                                                                 \
  }                                                                           \
                                                                              \
  /* The dense butterfly's 4-lane body: off = {cm, cm | bit}. */              \
  WIDE static long dense_wide_##SFX(T *a, const double *u, const long *off,   \
                                    long fixed, long i, long steps)           \
  {                                                                           \
    const v4d one = { 1.0, 1.0, 1.0, 1.0 }, sg = { -1.0, 1.0, -1.0, 1.0 };    \
    v4d g[8];                                                                 \
    GATE(g, u, one, sg);                                                      \
    if (fixed & 1) return wide_walk_##SFX(a, g, off, 2, 0, 1, 0, fixed, i, steps); \
    return wide_walk_##SFX(a, g, off, 2, 0, 1, 1, fixed, i, steps);           \
  }                                                                           \
                                                                              \
  /* The local kernel's 4-lane body, d = 2 or 4 columns. */                   \
  WIDE static long local_wide_##SFX(T *a, const double *u, const long *off,   \
                                    int d, long paths, long fixed, long i,    \
                                    long steps)                               \
  {                                                                           \
    const v4d one = { 1.0, 1.0, 1.0, 1.0 }, sg = { -1.0, 1.0, -1.0, 1.0 };    \
    v4d g[32];                                                                \
    for (int k = 0; k < d * d; k++) {                                         \
      g[2 * k] = one * u[2 * k];                                              \
      g[2 * k + 1] = sg * u[2 * k + 1];                                       \
    }                                                                         \
    if (d == 2) {                                                             \
      if (fixed & 1)                                                          \
        return wide_walk_##SFX(a, g, off, 2, paths, 0, 0, fixed, i, steps);   \
      return wide_walk_##SFX(a, g, off, 2, paths, 0, 1, fixed, i, steps);     \
    }                                                                         \
    if (fixed & 1)                                                            \
      return wide_walk_##SFX(a, g, off, 4, paths, 0, 0, fixed, i, steps);     \
    return wide_walk_##SFX(a, g, off, 4, paths, 0, 1, fixed, i, steps);       \
  }
#else
/* Off x86-64 dense_lanes stays 2 and these stand-ins are never called. */
#define WIDE_BODIES(T, SFX)                                                   \
  static long dense_wide_##SFX(T *a, const double *u, const long *off,        \
                               long fixed, long i, long steps)                \
  {                                                                           \
    (void)a, (void)u, (void)off, (void)fixed, (void)steps;                    \
    return i;                                                                 \
  }                                                                           \
  static long local_wide_##SFX(T *a, const double *u, const long *off, int d, \
                               long paths, long fixed, long i, long steps)    \
  {                                                                           \
    (void)a, (void)u, (void)off, (void)d, (void)paths, (void)fixed;           \
    (void)steps;                                                              \
    return i;                                                                 \
  }
#endif

/* The k-th index with every bit of [fixed] 0: zeros inserted at the
   fixed positions, lowest first. */
static inline long first_free(long k, long fixed)
{
  for (long f = fixed; f != 0; f &= f - 1)
    k = insert_zero(k, __builtin_ctzl(f));
  return k;
}

/* The next index after [i] with every bit of [fixed] 0: the carry of
   the increment runs through the fixed bits, which are then cleared. */
static inline long next_free(long i, long fixed)
{
  return ((i | fixed) + 1) & ~fixed;
}

/* The matrix-DD arena window (Storage.arena, = Dd.view): slot levels,
   packed children and the per-level identity slots are OCaml int arrays,
   weight planes flat float arrays. */
typedef struct {
  const value *lv, *ch;
  const double *re, *im;
  const value *ident;
  long nident;
} arena;

static inline arena arena_of(value view)
{
  value ident = Field(view, 4);
  arena a = { (const value *)Field(view, 0), (const value *)Field(view, 1),
              (const double *)Field(view, 2), (const double *)Field(view, 3),
              (const value *)ident, (long)Wosize_val(ident) };
  return a;
}

static inline int is_identity(const arena *ar, long node, long level)
{
  return level >= 0 && level < ar->nident && Long_val(ar->ident[level]) == node;
}

/* One root-to-node path of the Run recursion: its V and W offsets and
   the product f of the edge weights along it. */
typedef struct {
  long iv, iw;
  double fre, fim;
} path;

/* Paths per batch: 32 bytes each, so one batch buffer is 2 KB of C stack
   per recursion level. */
#define BATCH_CAP 64

/* The path through child edge e in quadrant q (row q >> 1, column q & 1)
   of a node whose children are 2^level wide. */
static inline path descend(const arena *ar, long e, const path *p, int q,
                           long half)
{
  long wid = EDGE_WID(e);
  double er = ar->re[wid], ei = ar->im[wid];
  path c = { p->iv + (q & 1) * half, p->iw + (q >> 1) * half,
             (p->fre * er) - (p->fim * ei), (p->fre * ei) + (p->fim * er) };
  return c;
}

/* Run stops recursing at the canonical identity (one stripe), at a
   level-0 node (its four MACs) and at the terminal (level -1, only as
   the n = 0 border task). */
static inline int ends_walk(const arena *ar, long node, long level)
{
  return level <= 0 || is_identity(ar, node, level);
}

/* A pure-replication node is (e, 0, 0, e') or (0, e, e', 0) with e and e'
   on the same target. Returns the quadrant of its first nonzero child (0
   or 1; the other is 3 minus it), or -1 for any other node. */
static inline int replication_quadrant(const long *es)
{
  if (es[1] == 0 && es[2] == 0 && es[0] != 0 && es[3] != 0
      && EDGE_TGT(es[0]) == EDGE_TGT(es[3]))
    return 0;
  if (es[0] == 0 && es[3] == 0 && es[1] != 0 && es[2] != 0
      && EDGE_TGT(es[1]) == EDGE_TGT(es[2]))
    return 1;
  return -1;
}

#define ARGS5 argv[0], argv[1], argv[2], argv[3], argv[4]
#define BYTE_STUB(NAME, ...)                                                  \
  value NAME##_byte(value *argv, int argn)                                    \
  {                                                                           \
    (void)argn;                                                               \
    return NAME(__VA_ARGS__);                                                 \
  }

#define DEFINE_KERNELS(T, SFX)                                                \
                                                                              \
  /* dst[dp+k] <- s * src[sp+k] for k < len. */                               \
  value qcs_scale2_into_##SFX(value src, value sp, value dst, value dp,       \
                              value len, double sre, double sim)              \
  {                                                                           \
    const T *s = (const T *)Caml_ba_data_val(src) + 2 * Long_val(sp);         \
    T *d = (T *)Caml_ba_data_val(dst) + 2 * Long_val(dp);                     \
    long n = Long_val(len);                                                   \
    for (long k = 0; k < n; k++) {                                            \
      double re = s[2 * k], im = s[2 * k + 1];                                \
      d[2 * k] = (T)((sre * re) - (sim * im));                                \
      d[2 * k + 1] = (T)((sre * im) + (sim * re));                            \
    }                                                                         \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* dst[dp+k] <- dst[dp+k] + s * src[sp+k] for k < len. */                  \
  value qcs_scale2_add_into_##SFX(value src, value sp, value dst, value dp,   \
                                  value len, double sre, double sim)          \
  {                                                                           \
    const T *s = (const T *)Caml_ba_data_val(src) + 2 * Long_val(sp);         \
    T *d = (T *)Caml_ba_data_val(dst) + 2 * Long_val(dp);                     \
    long n = Long_val(len);                                                   \
    for (long k = 0; k < n; k++) {                                            \
      double re = s[2 * k], im = s[2 * k + 1];                                \
      d[2 * k] = (T)((double)d[2 * k] + ((sre * re) - (sim * im)));           \
      d[2 * k + 1] = (T)((double)d[2 * k + 1] + ((sre * im) + (sim * re)));   \
    }                                                                         \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* dst[dp+k] <- dst[dp+k] + src[sp+k] for k < len. */                      \
  value qcs_add_into_##SFX(value src, value sp, value dst, value dp,          \
                           value len)                                         \
  {                                                                           \
    const T *s = (const T *)Caml_ba_data_val(src) + 2 * Long_val(sp);         \
    T *d = (T *)Caml_ba_data_val(dst) + 2 * Long_val(dp);                     \
    long n = 2 * Long_val(len);                                               \
    for (long k = 0; k < n; k++) d[k] = (T)((double)d[k] + (double)s[k]);     \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  value qcs_fill_zero_range_##SFX(value t, value pos, value len)              \
  {                                                                           \
    T *d = (T *)Caml_ba_data_val(t) + 2 * Long_val(pos);                      \
    memset(d, 0, 2 * (size_t)Long_val(len) * sizeof(T));                     \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* Sum of squares of the first 2*len floats, in index order. */            \
  double qcs_norm2_##SFX(value t, value len)                                  \
  {                                                                           \
    const T *d = (const T *)Caml_ba_data_val(t);                              \
    long n = 2 * Long_val(len);                                               \
    double acc = 0.0;                                                         \
    for (long k = 0; k < n; k++) acc = acc + ((double)d[k] * (double)d[k]);   \
    return acc;                                                               \
  }                                                                           \
                                                                              \
  /* The 2-lane butterfly on the controlled pair whose low index is i. */   \
  static inline void pair2_##SFX(T *a, const v2d *g, long i, long bit)        \
  {                                                                           \
    T *p0 = a + 2 * i, *p1 = p0 + 2 * bit;                                    \
    v2d x0 = load2_##SFX(p0), x1 = load2_##SFX(p1);                          \
    v2d s0 = swap2(x0), s1 = swap2(x1);                                       \
    store2_##SFX(p0, ROW(g, 0, x0, s0, x1, s1));                              \
    store2_##SFX(p1, ROW(g, 1, x0, s0, x1, s1));                              \
  }                                                                           \
                                                                              \
  WIDE_BODIES(T, SFX)                                                         \
                                                                              \
  /* The 2x2 butterfly over the controlled pairs [lo, hi): pair k is the    \
     k-th low index, ascending, with the target bit 0 and every bit of     \
     [cmask] 1. [m] is the gate as 8 floats, row-major re/im. The header   \
     gives the lanes, why the bytes stay, the pair walk and when the       \
     4-lane body takes over. */                                             \
  value qcs_dense_single_##SFX(value buf, value m, value target, value cmask, \
                               value lo, value hi)                            \
  {                                                                           \
    T *a = (T *)Caml_ba_data_val(buf);                                        \
    const double *u = (const double *)m;                                      \
    const v2d one = { 1.0, 1.0 }, sg = { -1.0, 1.0 };                         \
    v2d g[8];                                                                 \
    GATE(g, u, one, sg);                                                      \
    long cm = Long_val(cmask), bit = 1L << Long_val(target);                  \
    long fixed = cm | bit, k = Long_val(lo), end = Long_val(hi);              \
    long off[2] = { cm, cm | bit };                                           \
    long i = first_free(k, fixed);                                            \
    if (dense_lanes == 4 && end - k >= 2) {                                   \
      if ((fixed & 1) == 0 && (k & 1)) {                                      \
        pair2_##SFX(a, g, i | cm, bit);                                       \
        i = next_free(i, fixed);                                              \
        k++;                                                                  \
      }                                                                       \
      long steps = (end - k) >> 1;                                            \
      i = dense_wide_##SFX(a, u, off, fixed, i, steps);                       \
      k += 2 * steps;                                                         \
    }                                                                         \
    for (; k < end; k++) {                                                    \
      pair2_##SFX(a, g, i | cm, bit);                                         \
      i = next_free(i, fixed);                                                \
    }                                                                         \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* The local kernel's 2-lane body on the group whose base is i: every     \
     output row starts from +0 and adds u_rc x_c column by column, each     \
     sum rounded to T (header). */                                          \
  static inline __attribute__((always_inline)) void local_group_##SFX(       \
      T *a, const v2d *g, const long *off, int d, long paths, long i)         \
  {                                                                           \
    v2d x[4], sw[4];                                                          \
    UNROLL                                                                    \
    for (int c = 0; c < d; c++) {                                             \
      x[c] = load2_##SFX(a + 2 * (i + off[c]));                               \
      sw[c] = swap2(x[c]);                                                    \
    }                                                                         \
    UNROLL                                                                    \
    for (int r = 0; r < d; r++) {                                             \
      const v2d *gr = g + 2 * d * r;                                          \
      v2d acc = { 0.0, 0.0 };                                                 \
      UNROLL                                                                  \
      for (int c = 0; c < d; c++)                                             \
        if ((paths >> (d * r + c)) & 1)                                       \
          acc = round2_##SFX(acc + ((gr[2 * c] * x[c]) + (gr[2 * c + 1] * sw[c]))); \
      store2_##SFX(a + 2 * (i + off[r]), acc);                                \
    }                                                                         \
  }                                                                           \
                                                                              \
  static void local_groups_##SFX(T *a, const v2d *g, const long *off, int d,  \
                                 long paths, long fixed, long i, long count)  \
  {                                                                           \
    const long o[4] = { off[0], off[1], off[2], off[3] }; /* see wide_walk */ \
    if (d == 2)                                                               \
      for (long k = 0; k < count; k++, i = next_free(i, fixed))               \
        local_group_##SFX(a, g, o, 2, paths, i);                              \
    else                                                                      \
      for (long k = 0; k < count; k++, i = next_free(i, fixed))               \
        local_group_##SFX(a, g, o, 4, paths, i);                              \
  }                                                                           \
                                                                              \
  /* The local kernel over the groups [lo, hi): group k is the k-th base,     \
     ascending, with the [major] and [minor] bits 0. [m] is the gate's 2x2  \
     ([major] 0) or 4x4 matrix, row-major re/im, index 2 b(major) +         \
     b(minor); for a dense gate [major] is q_hi, the lower bit or not. */   \
  value qcs_local_##SFX(value buf, value m, value major, value minor,         \
                        value paths_v, value lo, value hi)                    \
  {                                                                           \
    T *a = (T *)Caml_ba_data_val(buf);                                        \
    const double *u = (const double *)m;                                      \
    long bh = Long_val(major), bl = Long_val(minor), fixed = bh | bl;         \
    long k = Long_val(lo), end = Long_val(hi), paths = Long_val(paths_v);     \
    int d = bh ? 4 : 2;                                                       \
    long off[4] = { 0, bl, bh, bh | bl };                                     \
    const v2d one = { 1.0, 1.0 }, sg = { -1.0, 1.0 };                         \
    v2d g[32];                                                                \
    for (int q = 0; q < d * d; q++) {                                         \
      g[2 * q] = one * u[2 * q];                                              \
      g[2 * q + 1] = sg * u[2 * q + 1];                                       \
    }                                                                         \
    long i = first_free(k, fixed);                                            \
    if (dense_lanes == 4 && end - k >= 2) {                                   \
      if ((fixed & 1) == 0 && (k & 1)) {                                      \
        local_groups_##SFX(a, g, off, d, paths, fixed, i, 1);                 \
        i = next_free(i, fixed);                                              \
        k++;                                                                  \
      }                                                                       \
      long steps = (end - k) >> 1;                                            \
      i = local_wide_##SFX(a, u, off, d, paths, fixed, i, steps);             \
      k += 2 * steps;                                                         \
    }                                                                         \
    local_groups_##SFX(a, g, off, d, paths, fixed, i, end - k);               \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* w[iw] += (f * e.weight) * v[iv] for one terminal edge: the MAC the     \
     cost model counts. */                                                    \
  static inline void mac_##SFX(const arena *ar, long e, const T *v, T *w,    \
                               long iv, long iw, double fre, double fim)      \
  {                                                                           \
    long wid = EDGE_WID(e);                                                   \
    double er = ar->re[wid], ei = ar->im[wid];                                \
    double gre = (fre * er) - (fim * ei);                                     \
    double gim = (fre * ei) + (fim * er);                                     \
    double vre = v[2 * iv], vim = v[2 * iv + 1];                              \
    w[2 * iw] = (T)((double)w[2 * iw] + ((gre * vre) - (gim * vim)));         \
    w[2 * iw + 1] = (T)((double)w[2 * iw + 1] + ((gre * vim) + (gim * vre))); \
  }                                                                           \
                                                                              \
  /* The walk ends at the canonical identity, at a level-0 node and at        \
     the terminal (the n = 0 border task); leaf_ does that node's work for    \
     one path. */                                                             \
  static inline void leaf_##SFX(const arena *ar, long node, long level,       \
                                const long *es, const T *v, T *w, long iv,    \
                                long iw, double fre, double fim)              \
  {                                                                           \
    if (level > 0) {                                                          \
      /* Identity: W[iw, iw+2s) += g * V[iv, ...) with s = 2^level. Each      \
         element gets exactly the one MAC the recursion would give it. g      \
         replays the recursion's weight products, one per level, so signed    \
         zeros come out as they would there. */                               \
      long wid = EDGE_WID(es[0]);                                             \
      double er = ar->re[wid], ei = ar->im[wid];                              \
      double gre = fre, gim = fim;                                            \
      for (long l = 0; l <= level; l++) {                                     \
        double r = (gre * er) - (gim * ei);                                   \
        gim = (gre * ei) + (gim * er);                                        \
        gre = r;                                                              \
      }                                                                       \
      const T *s = v + 2 * iv;                                                \
      T *d = w + 2 * iw;                                                      \
      long len = 2L << level;                                                 \
      for (long k = 0; k < len; k++) {                                        \
        double vre = s[2 * k], vim = s[2 * k + 1];                            \
        d[2 * k] = (T)((double)d[2 * k] + ((gre * vre) - (gim * vim)));       \
        d[2 * k + 1] = (T)((double)d[2 * k + 1] + ((gre * vim) + (gim * vre))); \
      }                                                                       \
    } else if (level == 0) {                                                  \
      /* Terminal children: the four MACs inline. */                          \
      if (es[0] != 0) mac_##SFX(ar, es[0], v, w, iv, iw, fre, fim);           \
      if (es[1] != 0) mac_##SFX(ar, es[1], v, w, iv + 1, iw, fre, fim);       \
      if (es[2] != 0) mac_##SFX(ar, es[2], v, w, iv, iw + 1, fre, fim);       \
      if (es[3] != 0) mac_##SFX(ar, es[3], v, w, iv + 1, iw + 1, fre, fim);   \
    } else {                                                                  \
      double vre = v[2 * iv], vim = v[2 * iv + 1];                            \
      w[2 * iw] = (T)((double)w[2 * iw] + ((fre * vre) - (fim * vim)));       \
      w[2 * iw + 1] = (T)((double)w[2 * iw + 1] + ((fre * vim) + (fim * vre))); \
    }                                                                         \
    }                                                                         \
                                                                              \
  static void run_batch_##SFX(const arena *ar, long node, const T *v, T *w,   \
                              const path *ps, long k);                        \
                                                                              \
  /* Algorithm 1's Run: W[iw..] += f * M(node) * V[iv..], one call per        \
     root-to-node path, except below a pure-replication node. The path        \
     travels in scalar arguments: run_batch_ with one-path batches was        \
     19% slower on dnn-16's all-general gates (same host as above). */        \
  static void run_node_##SFX(const arena *ar, long node, const T *v, T *w,   \
                               long iv, long iw, double fre, double fim)      \
  {                                                                           \
    long level = Long_val(ar->lv[node]);                                      \
    const value *c = ar->ch + 4 * node;                                       \
    long es[4] = { Long_val(c[0]), Long_val(c[1]), Long_val(c[2]),            \
                   Long_val(c[3]) };                                          \
    if (ends_walk(ar, node, level)) {                                         \
      leaf_##SFX(ar, node, level, es, v, w, iv, iw, fre, fim);                \
      return;                                                                 \
    }                                                                         \
      long half = 1L << level;                                                \
    int r = replication_quadrant(es);                                         \
    if (r >= 0) {                                                             \
      path p = { iv, iw, fre, fim };                                          \
      path pair[2] = { descend(ar, es[r], &p, r, half),                       \
                       descend(ar, es[3 - r], &p, 3 - r, half) };             \
      run_batch_##SFX(ar, EDGE_TGT(es[r]), v, w, pair, 2);                    \
      return;                                                                 \
    }                                                                         \
      for (int q = 0; q < 4; q++) {                                           \
        long e = es[q];                                                       \
        if (e == 0) continue;                                                 \
        long wid = EDGE_WID(e);                                               \
        double er = ar->re[wid], ei = ar->im[wid];                            \
        run_node_##SFX(ar, EDGE_TGT(e), v, w, iv + (q & 1) * half,            \
                       iw + (q >> 1) * half, (fre * er) - (fim * ei),         \
                       (fre * ei) + (fim * er));                              \
      }                                                                       \
    }                                                                         \
                                                                              \
  /* Run for the k <= BATCH_CAP paths ps[0..k) through one node, each node    \
     below visited once per batch. The paths cover disjoint W rows, so        \
     taking them one after another at every node leaves each W element's      \
     MACs in the per-path recursion's order, with the same weights. */        \
  static void run_batch_##SFX(const arena *ar, long node, const T *v, T *w,   \
                              const path *ps, long k)                         \
  {                                                                           \
    long level = Long_val(ar->lv[node]);                                      \
    const value *c = ar->ch + 4 * node;                                       \
    long es[4] = { Long_val(c[0]), Long_val(c[1]), Long_val(c[2]),            \
                   Long_val(c[3]) };                                          \
    if (ends_walk(ar, node, level)) {                                         \
      for (long j = 0; j < k; j++)                                            \
        leaf_##SFX(ar, node, level, es, v, w, ps[j].iv, ps[j].iw, ps[j].fre,  \
                   ps[j].fim);                                                \
      return;                                                                 \
    }                                                                         \
      long half = 1L << level;                                                \
    int r = replication_quadrant(es);                                         \
    path batch[BATCH_CAP];                                                    \
    if (r >= 0) {                                                             \
      /* Two paths per source path, BATCH_CAP / 2 source paths a chunk. */    \
      for (long s = 0; s < k; s += BATCH_CAP / 2) {                           \
        long m = k - s < BATCH_CAP / 2 ? k - s : BATCH_CAP / 2;               \
        for (long j = 0; j < m; j++) {                                        \
          batch[2 * j] = descend(ar, es[r], &ps[s + j], r, half);             \
          batch[2 * j + 1] = descend(ar, es[3 - r], &ps[s + j], 3 - r, half); \
    }                                                                         \
        run_batch_##SFX(ar, EDGE_TGT(es[r]), v, w, batch, 2 * m);             \
    }                                                                         \
      return;                                                                 \
    }                                                                         \
    /* A general node: each child in recursion order, with its own batch. */  \
      for (int q = 0; q < 4; q++) {                                           \
      if (es[q] == 0) continue;                                               \
      for (long j = 0; j < k; j++)                                            \
        batch[j] = descend(ar, es[q], &ps[j], q, half);                       \
      run_batch_##SFX(ar, EDGE_TGT(es[q]), v, w, batch, k);                   \
    }                                                                         \
  }                                                                           \
                                                                              \
  value qcs_dmav_run_##SFX(value view, value node, value v, value w,          \
                           value iv, value iw, double fre, double fim)        \
  {                                                                           \
    arena ar = arena_of(view);                                                \
    run_node_##SFX(&ar, Long_val(node), (const T *)Caml_ba_data_val(v),       \
                   (T *)Caml_ba_data_val(w), Long_val(iv), Long_val(iw),      \
                   fre, fim);                                                 \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* Byte-code entry points: boxed floats, argument vectors past 5. */      \
  BYTE_STUB(qcs_scale2_into_##SFX, ARGS5, Double_val(argv[5]),                \
            Double_val(argv[6]))                                              \
  BYTE_STUB(qcs_scale2_add_into_##SFX, ARGS5, Double_val(argv[5]),            \
            Double_val(argv[6]))                                              \
  BYTE_STUB(qcs_dense_single_##SFX, ARGS5, argv[5])                           \
  BYTE_STUB(qcs_local_##SFX, ARGS5, argv[5], argv[6])                         \
  BYTE_STUB(qcs_dmav_run_##SFX, ARGS5, argv[5], Double_val(argv[6]),          \
            Double_val(argv[7]))                                              \
  value qcs_norm2_##SFX##_byte(value t, value len)                            \
  {                                                                           \
    return caml_copy_double(qcs_norm2_##SFX(t, len));                         \
  }

DEFINE_KERNELS(double, f64)
DEFINE_KERNELS(float, f32)
