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
   store). With bit 0 free, i.e. neither the target nor a control on
   qubit 0, pair k + 1 sits right after pair k and one load covers both;
   a stripe's odd leading pair and its odd trailing pair go through the
   2-lane body. With bit 0 fixed the 4-lane body still takes two
   consecutive pairs per step, each 32-byte vector built from two
   16-byte halves. On CPUs with AVX-512F an 8-lane body holds four
   consecutive pairs in one 64-byte vector, sg (-1, +1) four times: one
   load when bits 0 and 1 are both free, two 32-byte loads when only bit
   0 is, four 16-byte halves when bit 0 is fixed (neighbours() gives the
   run of neighbouring pairs a load may take). A step starts at a pair
   index divisible by that run, so the pairs of a load never straddle a
   carry; the pairs before the first step and after the last go through
   the 4- and 2-lane bodies. The 4- and 8-lane bodies are one macro
   source (WIDE_BODIES_W), compiled with target("avx2") and
   target("avx512f"); -ffp-contract=off keeps the FMA instructions both
   targets have out of them (CI checks the object code for any). A load-time constructor picks the widest
   body the CPU has through __builtin_cpu_supports; host_lanes records
   the pick (2, 4 or 8) for Storage.dense_lanes, and lanes, which the
   kernels read, is the pick unless a test holds a narrower body
   (Storage.Testing.with_lanes). On non-x86 hosts the 2-lane loop is the
   only body.

   The local kernel is the local leg, the flat phase's kernel for every
   gate given by its matrix rather than its DD: a 2x2 or 4x4 matrix U on
   one or two levels (its support), optionally under a control mask. It
   applies U in place, group by group (the 2 or 4 amplitudes over one
   index with the support bits 0 and every control bit 1): with fixed =
   support | cmask the bases walk the indices whose fixed bits are 0, as
   the dense kernel's pairs do, and cmask is added to every offset, so
   only the 2^(n-s-c) groups whose control bits are all 1 are visited.
   Each output starts from +0 and adds u_rc x_c for the c whose entry is
   masked in (not 0) in ascending order, in double, and rounds to T once,
   at the store, with the term computed as Run's MAC computes it: lane 0
   ur xre + (-ui) xim, lane 1 ur xim + ui xre. The 2-lane body does one
   group; the 4-lane body two, in one 32-byte vector per column: one load
   when bit 0 is not fixed (the groups are neighbours), two 16-byte halves
   when it is; the 8-lane body four, in one 64-byte load when bits 0 and
   1 are both free, else from 32-byte or 16-byte pieces. The walks, the
   loads and the stores are the dense kernel's; only the row arithmetic
   differs. A dense two-qubit gate is the local kernel with all 16 paths
   set and no controls, its qubits in the matrix's index order (major,
   minor).

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
   gate at n = 16, one worker on a 2-core Xeon).

   The DD->array conversion's walk (qcs_convert, at the end) is here too:
   it shares the arena window and the [@@noalloc] contract. */

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

/* Lanes of the widest body the dense and local kernels run: on x86-64,
   8 once the constructor below has found AVX-512F, else 4 once it has
   found AVX2, else 2. [host_lanes] is the pick, [lanes] what the kernels
   read: the pick, or a narrower body a test asked for
   (qcs_testing_set_lanes). Written before main and by
   Storage.Testing.with_lanes only. */
static long host_lanes = 2;
static long lanes = 2;

value qcs_dense_lanes(value unit)
{
  (void)unit;
  return Val_long(host_lanes);
}

/* Storage.Testing.with_lanes has checked l against host_lanes. */
value qcs_testing_set_lanes(value l)
{
  lanes = Long_val(l);
  return Val_unit;
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define TARGET4 __attribute__((target("avx2")))
#define TARGET8 __attribute__((target("avx512f")))

/* Two amplitudes, (re0, im0, re1, im1), in one 32-byte vector; four in
   one 64-byte vector. */
typedef double v4d __attribute__((vector_size(32)));
typedef float v4f __attribute__((vector_size(16)));
typedef double v8d __attribute__((vector_size(64)));

__attribute__((constructor)) static void detect_lanes(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) host_lanes = 4;
  if (__builtin_cpu_supports("avx512f")) host_lanes = 8;
  lanes = host_lanes;
}

TARGET4 static inline v4d swap4(v4d x)
{
  v4d r = { x[1], x[0], x[3], x[2] };
  return r;
}

TARGET8 static inline v8d swap8(v8d x)
{
  v8d r = { x[1], x[0], x[3], x[2], x[5], x[4], x[7], x[6] };
  return r;
}

TARGET4 static inline v4d load4_f64(const double *p)
{
  v4d x;
  memcpy(&x, p, sizeof x);
  return x;
}

TARGET4 static inline void store4_f64(double *p, v4d x)
{
  memcpy(p, &x, sizeof x);
}

/* Four floats widened by one vcvtps2pd: GCC 12 lowers the
   __builtin_convertvector form to two 128-bit converts and an insert,
   which made f32 gates 1.3x slower (n = 18, one thread of a 2-core AVX2
   Xeon). Widening is exact either way. */
TARGET4 static inline v4d load4_f32(const float *p)
{
  return (v4d)_mm256_cvtps_pd(_mm_loadu_ps(p));
}

TARGET4 static inline void store4_f32(float *p, v4d x)
{
  v4f y = __builtin_convertvector(x, v4f);
  memcpy(p, &y, sizeof y);
}

/* Two amplitudes from two addresses, one 16-byte half each: the 4-lane
   walk's vectors when the two groups of a step are not neighbours. */
TARGET4 static inline v4d load4x_f64(const double *p, const double *q)
{
  return (v4d)_mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(p)),
                                    _mm_loadu_pd(q), 1);
}

TARGET4 static inline void store4x_f64(double *p, double *q, v4d x)
{
  _mm_storeu_pd(p, _mm256_castpd256_pd128((__m256d)x));
  _mm_storeu_pd(q, _mm256_extractf128_pd((__m256d)x, 1));
}

TARGET4 static inline v4d load4x_f32(const float *p, const float *q)
{
  __m128 lo = _mm_loadl_pi(_mm_setzero_ps(), (const __m64 *)p);
  return (v4d)_mm256_cvtps_pd(_mm_loadh_pi(lo, (const __m64 *)q));
}

TARGET4 static inline void store4x_f32(float *p, float *q, v4d x)
{
  __m128 y = _mm256_cvtpd_ps((__m256d)x);
  _mm_storel_pi((__m64 *)p, y);
  _mm_storeh_pi((__m64 *)q, y);
}

TARGET8 static inline v8d load8_f64(const double *p)
{
  v8d x;
  memcpy(&x, p, sizeof x);
  return x;
}

TARGET8 static inline void store8_f64(double *p, v8d x)
{
  memcpy(p, &x, sizeof x);
}

TARGET8 static inline v8d load8_f32(const float *p)
{
  return (v8d)_mm512_cvtps_pd(_mm256_loadu_ps(p));
}

TARGET8 static inline void store8_f32(float *p, v8d x)
{
  _mm256_storeu_ps(p, _mm512_cvtpd_ps((__m512d)x));
}

/* An 8-lane vector from pieces: the groups with bases b[0..4), runs of
   nb = 2 neighbours (two 32-byte runs) or single groups (four 16-byte
   halves). At f32 the pieces are gathered as floats and widened by one
   vcvtps2pd, as load8_f32 widens a whole load. */
TARGET8 static inline v8d load8x_f64(const double *a, const long *b, long o, int nb)
{
  const double *p0 = a + 2 * (b[0] + o), *p2 = a + 2 * (b[2] + o);
  v4d lo = nb == 2 ? load4_f64(p0) : load4x_f64(p0, a + 2 * (b[1] + o));
  v4d hi = nb == 2 ? load4_f64(p2) : load4x_f64(p2, a + 2 * (b[3] + o));
  return (v8d)_mm512_insertf64x4(_mm512_castpd256_pd512((__m256d)lo), (__m256d)hi, 1);
}

TARGET8 static inline void store8x_f64(double *a, const long *b, long o, int nb, v8d y)
{
  v4d lo = (v4d)_mm512_castpd512_pd256((__m512d)y);
  v4d hi = (v4d)_mm512_extractf64x4_pd((__m512d)y, 1);
  double *p0 = a + 2 * (b[0] + o), *p2 = a + 2 * (b[2] + o);
  if (nb == 2) {
    store4_f64(p0, lo);
    store4_f64(p2, hi);
  } else {
    store4x_f64(p0, a + 2 * (b[1] + o), lo);
    store4x_f64(p2, a + 2 * (b[3] + o), hi);
  }
}

/* Two amplitudes' four floats from the groups at b[0], b[1]. */
TARGET4 static inline __m128 pair_f32(const float *a, const long *b, long o, int nb)
{
  const float *p = a + 2 * (b[0] + o);
  if (nb == 2) return _mm_loadu_ps(p);
  return _mm_loadh_pi(_mm_loadl_pi(_mm_setzero_ps(), (const __m64 *)p),
                      (const __m64 *)(a + 2 * (b[1] + o)));
}

TARGET4 static inline void unpair_f32(float *a, const long *b, long o, int nb, __m128 y)
{
  float *p = a + 2 * (b[0] + o);
  if (nb == 2) {
    _mm_storeu_ps(p, y);
    return;
  }
  _mm_storel_pi((__m64 *)p, y);
  _mm_storeh_pi((__m64 *)(a + 2 * (b[1] + o)), y);
}

TARGET8 static inline v8d load8x_f32(const float *a, const long *b, long o, int nb)
{
  __m256 x = _mm256_insertf128_ps(_mm256_castps128_ps256(pair_f32(a, b, o, nb)),
                                  pair_f32(a, b + 2, o, nb), 1);
  return (v8d)_mm512_cvtps_pd(x);
}

TARGET8 static inline void store8x_f32(float *a, const long *b, long o, int nb, v8d y)
{
  __m256 f = _mm512_cvtpd_ps((__m512d)y);
  unpair_f32(a, b, o, nb, _mm256_castps256_ps128(f));
  unpair_f32(a, b + 2, o, nb, _mm256_extractf128_ps(f, 1));
}

/* A column's vector for a step whose groups have bases b[0..W/2), at
   offset o. [nb] says how many neighbouring groups one load may take:
   W / 2 (one load), 2 (the 8-lane vector from two 32-byte loads) or 1
   (from 16-byte halves). */
#define STEP_IO(T, SFX)                                                       \
  TARGET4 static inline v4d vload4_##SFX(T *a, const long *b, long o, int nb) \
  {                                                                           \
    return nb > 1 ? load4_##SFX(a + 2 * (b[0] + o))                           \
                  : load4x_##SFX(a + 2 * (b[0] + o), a + 2 * (b[1] + o));     \
  }                                                                           \
                                                                              \
  TARGET4 static inline void vstore4_##SFX(T *a, const long *b, long o,       \
                                           int nb, v4d y)                     \
  {                                                                           \
    if (nb > 1)                                                               \
      store4_##SFX(a + 2 * (b[0] + o), y);                                    \
    else                                                                      \
      store4x_##SFX(a + 2 * (b[0] + o), a + 2 * (b[1] + o), y);               \
  }                                                                           \
                                                                              \
  TARGET8 static inline v8d vload8_##SFX(T *a, const long *b, long o, int nb) \
  {                                                                           \
    return nb == 4 ? load8_##SFX(a + 2 * (b[0] + o)) : load8x_##SFX(a, b, o, nb); \
  }                                                                           \
                                                                              \
  TARGET8 static inline void vstore8_##SFX(T *a, const long *b, long o,       \
                                           int nb, v8d y)                     \
  {                                                                           \
    if (nb == 4)                                                              \
      store8_##SFX(a + 2 * (b[0] + o), y);                                    \
    else                                                                      \
      store8x_##SFX(a, b, o, nb, y);                                          \
  }

/* The local walk over [d] columns with paths [p], one specialized loop
   per run of neighbouring groups a load takes (see wide_walk). */
#define LOCAL_WALK(W, SFX, D, P)                                              \
  (nb == 1   ? wide_walk##W##_##SFX(a, g, off, D, P, 0, 1, fixed, i, steps)    \
   : nb == 2 ? wide_walk##W##_##SFX(a, g, off, D, P, 0, 2, fixed, i, steps)    \
             : wide_walk##W##_##SFX(a, g, off, D, P, 0, W / 2, fixed, i, steps))

/* The W-lane bodies, W = 4 or 8, from one source: a W-lane vector holds
   W / 2 groups' amplitude of one column, one group per 16-byte lane
   pair. */
#define WIDE_BODIES_W(W, T, SFX)                                              \
  /* One output row of the local kernel for W / 2 groups at once: the     \
     row's terms summed in double, [row] holding a bit per column with a    \
     path; the caller's store rounds. */                                    \
  TARGET##W static inline v##W##d local_row##W##_##SFX(                      \
      const v##W##d *g, const v##W##d *x, const v##W##d *sw, int d, long row) \
  {                                                                           \
    v##W##d acc = { 0.0 };                                                    \
    UNROLL                                                                    \
    for (int c = 0; c < d; c++)                                               \
      if ((row >> c) & 1)                                                     \
        acc = acc + ((g[2 * c] * x[c]) + (g[2 * c + 1] * sw[c]));          \
    return acc;                                                               \
  }                                                                           \
                                                                              \
  /* The W-lane walk shared by the dense single-qubit kernel and the local    \
     kernel: [steps] steps of W / 2 groups each, a group being the d          \
     amplitudes at base + off[c], the base walking the indices whose          \
     [fixed] bits are 0, from i. Runs of [nb] groups of a step are            \
     neighbours, so one load covers a run: nb = W / 2 when the low            \
     log2(W / 2) bits are free, 2 when only bit 0 is, else 1 (16-byte         \
     halves). [dense] picks the row arithmetic: the butterfly's ROW or the    \
     local kernel's running sums over [paths]. Returns the base after the     \
     last group. The constant arguments make each caller its own              \
     specialized loop. */                                                     \
  TARGET##W static inline __attribute__((always_inline)) long                 \
      wide_walk##W##_##SFX(T *a, const v##W##d *g, const long *off, int d,    \
                           long paths, int dense, int nb, long fixed, long i, \
                           long steps)                                        \
  {                                                                           \
    /* The offsets in locals: a vector store may alias the caller's array,    \
       which would then be reloaded after every store. */                     \
    long o[4] = { off[0], off[1], d > 2 ? off[2] : 0, d > 2 ? off[3] : 0 };   \
    for (long s = 0; s < steps; s++) {                                        \
      long b[W / 2];                                                          \
      b[0] = i;                                                               \
      for (int m = 1; m < W / 2; m++)                                         \
        b[m] = m % nb ? b[m - 1] + 1 : next_free(b[m - 1], fixed);            \
      v##W##d x[4], sw[4];                                                    \
      UNROLL                                                                  \
      for (int c = 0; c < d; c++) {                                           \
        x[c] = vload##W##_##SFX(a, b, o[c], nb);                              \
        sw[c] = swap##W(x[c]);                                                \
      }                                                                       \
      UNROLL                                                                  \
      for (int r = 0; r < d; r++) {                                           \
        v##W##d y = dense ? ROW(g, r, x[0], sw[0], x[1], sw[1])               \
                          : local_row##W##_##SFX(g + 2 * d * r, x, sw, d,     \
                                                 (paths >> (d * r))           \
                                                     & ((1 << d) - 1));       \
        vstore##W##_##SFX(a, b, o[r], nb, y);                                 \
      }                                                                       \
      i = next_free(b[W / 2 - 1], fixed);                                     \
    }                                                                         \
    return i;                                                                 \
  }                                                                           \
                                                                              \
  /* The gate's entries splatted, the imaginary parts times sg, for ROW     \
     and local_row: both products exact. */                                 \
  TARGET##W static inline void splat##W##_##SFX(v##W##d *g, const double *u,  \
                                                int entries)                  \
  {                                                                           \
    v##W##d one, sg;                                                          \
    for (int l = 0; l < W; l++) {                                             \
      one[l] = 1.0;                                                           \
      sg[l] = (l & 1) ? 1.0 : -1.0;                                           \
    }                                                                         \
    for (int k = 0; k < entries; k++) {                                       \
      g[2 * k] = one * u[2 * k];                                              \
      g[2 * k + 1] = sg * u[2 * k + 1];                                       \
    }                                                                         \
  }                                                                           \
                                                                              \
  /* The dense butterfly's W-lane body: off = {cm, cm | bit}. */              \
  TARGET##W static long dense_wide##W##_##SFX(T *a, const double *u,          \
                                              const long *off, long fixed,    \
                                              long i, long steps)             \
  {                                                                           \
    v##W##d g[8];                                                             \
    splat##W##_##SFX(g, u, 4);                                                \
    switch (neighbours(W, fixed)) {                                           \
    case 1: return wide_walk##W##_##SFX(a, g, off, 2, 0, 1, 1, fixed, i, steps); \
    case 2: return wide_walk##W##_##SFX(a, g, off, 2, 0, 1, 2, fixed, i, steps); \
    default: return wide_walk##W##_##SFX(a, g, off, 2, 0, 1, W / 2, fixed, i, steps); \
    }                                                                         \
  }                                                                           \
                                                                              \
  /* The local kernel's W-lane body, d = 2 or 4 columns. The common 2x2    \
     patterns (every entry, the diagonal, the anti-diagonal) walk with      \
     their paths a constant, so no column is tested per step. */            \
  TARGET##W static long local_wide##W##_##SFX(T *a, const double *u,          \
                                              const long *off, int d,         \
                                              long paths, long fixed, long i, \
                                              long steps)                     \
  {                                                                           \
    v##W##d g[32];                                                            \
    splat##W##_##SFX(g, u, d * d);                                            \
    int nb = neighbours(W, fixed);                                            \
    switch (d == 2 ? paths : -1) {                                            \
    case 0xf: return LOCAL_WALK(W, SFX, 2, 0xf);                              \
    case 0x9: return LOCAL_WALK(W, SFX, 2, 0x9);                              \
    case 0x6: return LOCAL_WALK(W, SFX, 2, 0x6);                              \
    default: return d == 2 ? LOCAL_WALK(W, SFX, 2, paths) : LOCAL_WALK(W, SFX, 4, paths); \
    }                                                                         \
  }

#define WIDE_BODIES(T, SFX)                                                   \
  STEP_IO(T, SFX)                                                             \
  WIDE_BODIES_W(4, T, SFX)                                                    \
  WIDE_BODIES_W(8, T, SFX)
#else
/* Off x86-64 the lanes stay 2 and these stand-ins are never called. */
#define WIDE_STANDINS(W, T, SFX)                                              \
  static long dense_wide##W##_##SFX(T *a, const double *u, const long *off,   \
                                    long fixed, long i, long steps)           \
  {                                                                           \
    (void)a, (void)u, (void)off, (void)fixed, (void)steps;                    \
    return i;                                                                 \
  }                                                                           \
  static long local_wide##W##_##SFX(T *a, const double *u, const long *off,   \
                                    int d, long paths, long fixed, long i,    \
                                    long steps)                               \
  {                                                                           \
    (void)a, (void)u, (void)off, (void)d, (void)paths, (void)fixed;           \
    (void)steps;                                                              \
    return i;                                                                 \
  }
#define WIDE_BODIES(T, SFX)                                                   \
  WIDE_STANDINS(4, T, SFX)                                                    \
  WIDE_STANDINS(8, T, SFX)
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

/* Neighbouring groups one load of a W-lane step takes, for [fixed]:
   runs of consecutive free indices are as long as the lowest fixed bit
   allows (1 with bit 0 fixed, 2 with bit 1 fixed, 4 with neither). */
static inline int neighbours(int w, long fixed)
{
  return fixed & 1 ? 1 : w == 8 && !(fixed & 2) ? 4 : 2;
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
  /* The local kernel's 2-lane body on the group whose base is i: every       \
     output row starts from +0 and adds u_rc x_c column by column, in         \
     double; the store rounds (header). */                                    \
  static inline __attribute__((always_inline)) void local_group_##SFX(        \
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
          acc = acc + ((gr[2 * c] * x[c]) + (gr[2 * c + 1] * sw[c]));       \
      store2_##SFX(a + 2 * (i + off[r]), acc);                                \
    }                                                                         \
  }                                                                           \
                                                                              \
  /* [count] groups from base i by the 2-lane body: the butterfly's pairs     \
     ([dense], off = {cm, cm | bit}) or the local kernel's groups.            \
     Returns the base after the last. */                                      \
  static long narrow_##SFX(T *a, const v2d *g, const long *off, int d,        \
                           long paths, int dense, long fixed, long i,         \
                           long count)                                        \
  {                                                                           \
    const long o[4] = { off[0], off[1], off[2], off[3] }; /* see wide_walk */ \
    if (dense)                                                                \
      for (long k = 0; k < count; k++, i = next_free(i, fixed))               \
        pair2_##SFX(a, g, i | o[0], o[1] ^ o[0]);                             \
    else if (d == 2)                                                          \
      for (long k = 0; k < count; k++, i = next_free(i, fixed))               \
        local_group_##SFX(a, g, o, 2, paths, i);                              \
    else                                                                      \
      for (long k = 0; k < count; k++, i = next_free(i, fixed))               \
        local_group_##SFX(a, g, o, 4, paths, i);                              \
    return i;                                                                 \
  }                                                                           \
                                                                              \
  /* Groups [k, end) from base i at 4 lanes at most: with 4 lanes, two        \
     groups a step from an even k on when bit 0 is free (from k itself        \
     when it is fixed); the 2-lane body for the rest. */                      \
  static long span4_##SFX(T *a, const v2d *g, const double *u,                \
                          const long *off, int d, long paths, int dense,      \
                          long fixed, long i, long k, long end)               \
  {                                                                           \
    if (lanes >= 4 && end - k >= 2) {                                         \
      if ((fixed & 1) == 0 && (k & 1)) {                                      \
        i = narrow_##SFX(a, g, off, d, paths, dense, fixed, i, 1);            \
        k++;                                                                  \
      }                                                                       \
      long steps = (end - k) >> 1;                                            \
      i = dense ? dense_wide4_##SFX(a, u, off, fixed, i, steps)               \
                : local_wide4_##SFX(a, u, off, d, paths, fixed, i, steps);    \
      k += 2 * steps;                                                         \
    }                                                                         \
    return narrow_##SFX(a, g, off, d, paths, dense, fixed, i, end - k);       \
  }                                                                           \
                                                                              \
  /* Groups [k, end) from base i = first_free(k, fixed): with 8 lanes,       \
     four groups a step from the first k divisible by the run of            \
     neighbours a load takes; span4 for the groups before it and after the  \
     last step. */                                                          \
  static void span_##SFX(T *a, const v2d *g, const double *u, const long *off, \
                         int d, long paths, int dense, long fixed, long k,    \
                         long end)                                            \
  {                                                                           \
    long i = first_free(k, fixed);                                            \
    if (lanes == 8 && end - k >= 4) {                                         \
      long lead = (-k) & (neighbours(8, fixed) - 1);                          \
      i = span4_##SFX(a, g, u, off, d, paths, dense, fixed, i, k, k + lead);  \
      k += lead;                                                              \
      long steps = (end - k) >> 2;                                            \
      i = dense ? dense_wide8_##SFX(a, u, off, fixed, i, steps)               \
                : local_wide8_##SFX(a, u, off, d, paths, fixed, i, steps);    \
      k += 4 * steps;                                                         \
    }                                                                         \
    span4_##SFX(a, g, u, off, d, paths, dense, fixed, i, k, end);             \
  }                                                                           \
                                                                              \
  /* The 2x2 butterfly over the controlled pairs [lo, hi): pair k is the      \
     k-th low index, ascending, with the target bit 0 and every bit of        \
     [cmask] 1. [m] is the gate as 8 floats, row-major re/im. The header      \
     gives the lanes, why the bytes stay, the pair walk and when the          \
     wider bodies take over. */                                               \
  value qcs_dense_single_##SFX(value buf, value m, value target, value cmask, \
                               value lo, value hi)                            \
  {                                                                           \
    const double *u = (const double *)m;                                      \
    const v2d one = { 1.0, 1.0 }, sg = { -1.0, 1.0 };                         \
    v2d g[8];                                                                 \
    GATE(g, u, one, sg);                                                      \
    long cm = Long_val(cmask), bit = 1L << Long_val(target);                  \
    long off[4] = { cm, cm | bit, 0, 0 };                                     \
    span_##SFX((T *)Caml_ba_data_val(buf), g, u, off, 2, 0, 1, cm | bit,      \
               Long_val(lo), Long_val(hi));                                   \
    return Val_unit;                                                          \
  }                                                                           \
                                                                              \
  /* The local kernel over the groups [lo, hi): group k is the k-th base,     \
     ascending, with the [major], [minor], [cmask] and [held] bits 0; its     \
     amplitudes sit at base | cmask plus the support bits, so the [held]      \
     bits stay 0. [m] is the gate's 2x2 ([major] 0) or 4x4 matrix,            \
     row-major re/im, index 2 b(major) + b(minor); for a dense gate           \
     [major] is q_hi, the lower bit or not. */                                \
  value qcs_local_##SFX(value buf, value m, value major, value minor,         \
                        value cmask, value held, value paths_v, value lo,     \
                        value hi)                                             \
  {                                                                           \
    const double *u = (const double *)m;                                      \
    long bh = Long_val(major), bl = Long_val(minor), cm = Long_val(cmask);   \
    int d = bh ? 4 : 2;                                                       \
    long off[4] = { cm, cm | bl, cm | bh, cm | bh | bl };                     \
    const v2d one = { 1.0, 1.0 }, sg = { -1.0, 1.0 };                         \
    v2d g[32];                                                                \
    for (int q = 0; q < d * d; q++) {                                         \
      g[2 * q] = one * u[2 * q];                                              \
      g[2 * q + 1] = sg * u[2 * q + 1];                                       \
    }                                                                         \
    span_##SFX((T *)Caml_ba_data_val(buf), g, u, off, d, Long_val(paths_v), 0, \
               bh | bl | cm | Long_val(held), Long_val(lo), Long_val(hi));     \
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
  BYTE_STUB(qcs_dense_single_##SFX, ARGS5, argv[5])                           \
  BYTE_STUB(qcs_local_##SFX, ARGS5, argv[5], argv[6], argv[7], argv[8])       \
  BYTE_STUB(qcs_dmav_run_##SFX, ARGS5, argv[5], Double_val(argv[6]),          \
            Double_val(argv[7]))                                              \
  value qcs_norm2_##SFX##_byte(value t, value len)                            \
  {                                                                           \
    return caml_copy_double(qcs_norm2_##SFX(t, len));                         \
  }

DEFINE_KERNELS(double, f64)
DEFINE_KERNELS(float, f32)

/* DD->array conversion over a vector arena window (Dd.vview: two packed
   children per slot): the walk of Convert.parallel's tasks and, with
   fills off, of Vec_dd.to_buf. A path's weight is the product of its
   edge weights, root first, each step Cnum.mul's expression
   (wre er - wim ei, wre ei + wim er); a terminal child takes the
   product as its amplitude. With fills on, a node whose two children
   are one node converts its low half only and fills the high half with
   one block scale by w1 / w0, the quotient written term for term as
   Cnum.div and the scale as qcs_scale2_into's. Level-0 and level-1
   nodes are done inline by their parents rather than entered, so a call
   covers at least four amplitudes.
   Only f64: the converter fills a Buf, which f32 runs then demote.

   A node is met once per path through it, and its fill factor is the
   same each time, so a call keeps the factors it has computed in a
   small direct-mapped table on the C stack: two divisions per fill
   cost more than walking the high half would. */

#define FACTOR_SLOTS 64

typedef struct {
  arena ar;
  double *buf;
  int fills;
  struct {
    long node;
    double re, im;
  } factor[FACTOR_SLOTS];
} convert_ctx;

/* The fill factor w1 / w0 of [node], whose children e0, e1 are one
   node. */
static inline void convert_factor(convert_ctx *cx, long node, long e0, long e1,
                                  double *sre, double *sim)
{
  long slot = node & (FACTOR_SLOTS - 1);
  if (cx->factor[slot].node != node) {
    const arena *ar = &cx->ar;
    long w0 = EDGE_WID(e0), w1 = EDGE_WID(e1);
    double bre = ar->re[w0], bim = ar->im[w0], are = ar->re[w1], aim = ar->im[w1];
    double d = (bre * bre) + (bim * bim);
    cx->factor[slot].node = node;
    cx->factor[slot].re = ((are * bre) + (aim * bim)) / d;
    cx->factor[slot].im = ((aim * bre) - (are * bim)) / d;
  }
  *sre = cx->factor[slot].re;
  *sim = cx->factor[slot].im;
}

/* The fill of [node]: the [half] amplitudes at off + half from those at
   off. */
static inline void convert_fill(convert_ctx *cx, long node, long e0, long e1,
                                long off, long half)
{
  double sre, sim;
  convert_factor(cx, node, e0, e1, &sre, &sim);
  const double *s = cx->buf + 2 * off;
  double *t = cx->buf + 2 * (off + half);
  for (long k = 0; k < half; k++) {
    double re = s[2 * k], im = s[2 * k + 1];
    t[2 * k] = (sre * re) - (sim * im);
    t[2 * k + 1] = (sre * im) + (sim * re);
  }
}

/* The children of [node] (incoming weight wre + i wim, sub-vector at
   off) in order, each child c's weight and offset handed to VISIT(tgt,
   o, r, i); the high child is skipped when it will be filled, and the
   fill comes last. */
#define CONVERT_CHILDREN(cx, node, off, wre, wim, VISIT)                      \
  do {                                                                        \
    const arena *ar_ = &(cx)->ar;                                             \
    long half_ = 1L << Long_val(ar_->lv[node]);                               \
    long e0_ = Long_val(ar_->ch[2 * (node)]);                                 \
    long e1_ = Long_val(ar_->ch[2 * (node) + 1]);                             \
    int fill_ = (cx)->fills && e0_ != 0 && e1_ != 0                           \
                && EDGE_TGT(e0_) == EDGE_TGT(e1_);                            \
    for (int b_ = 0; b_ < 2; b_++) {                                          \
      long e_ = b_ ? e1_ : e0_;                                               \
      if (e_ == 0 || (b_ && fill_)) continue;                                 \
      long wid_ = EDGE_WID(e_), tgt = EDGE_TGT(e_), o = (off) + b_ * half_;   \
      double er_ = ar_->re[wid_], ei_ = ar_->im[wid_];                        \
      double r = ((wre) * er_) - ((wim) * ei_);                               \
      double i = ((wre) * ei_) + ((wim) * er_);                               \
      VISIT;                                                                  \
    }                                                                         \
    if (fill_) convert_fill(cx, node, e0_, e1_, off, half_);                  \
  } while (0)

static inline void convert_write(convert_ctx *cx, long o, double r, double i)
{
  cx->buf[2 * o] = r;
  cx->buf[2 * o + 1] = i;
}

/* A level-0 node: its children are the terminal. A fill scales the
   low amplitude straight from the registers it was stored from, which
   is the same double. */
static inline void convert_leaf(convert_ctx *cx, long node, long off, double wre,
                                double wim)
{
  const arena *ar = &cx->ar;
  long e0 = Long_val(ar->ch[2 * node]), e1 = Long_val(ar->ch[2 * node + 1]);
  if (cx->fills && e0 != 0 && e1 != 0) {
    long wid = EDGE_WID(e0);
    double er = ar->re[wid], ei = ar->im[wid];
    double r = (wre * er) - (wim * ei), i = (wre * ei) + (wim * er);
    double sre, sim;
    convert_factor(cx, node, e0, e1, &sre, &sim);
    convert_write(cx, off, r, i);
    convert_write(cx, off + 1, (sre * r) - (sim * i), (sre * i) + (sim * r));
    return;
  }
  CONVERT_CHILDREN(cx, node, off, wre, wim, ((void)tgt, convert_write(cx, o, r, i)));
}

/* A level-1 node: its children are level-0 nodes, done inline. */
static inline void convert_pair(convert_ctx *cx, long node, long off, double wre,
                                double wim)
{
  CONVERT_CHILDREN(cx, node, off, wre, wim, convert_leaf(cx, tgt, o, r, i));
}

/* A node of level 2 or more: the walk enters only these, so a call
   covers at least four amplitudes. */
static void convert_node(convert_ctx *cx, long node, long off, double wre,
                         double wim)
{
  CONVERT_CHILDREN(cx, node, off, wre, wim, {
    long level = Long_val(cx->ar.lv[tgt]);
    if (tgt == 0)
      convert_write(cx, o, r, i);
    else if (level == 1)
      convert_pair(cx, tgt, o, r, i);
    else if (level == 0)
      convert_leaf(cx, tgt, o, r, i);
    else
      convert_node(cx, tgt, o, r, i);
  });
}

/* The sub-vector under [node], its incoming weight already folded into
   (wre, wim), written at amplitude [pos] of [buf]. */
value qcs_convert(value view, value node, value buf, value pos, double wre,
                  double wim, value fills)
{
  convert_ctx cx;
  cx.ar = arena_of(view);
  cx.buf = (double *)Caml_ba_data_val(buf);
  cx.fills = Bool_val(fills);
  for (int k = 0; k < FACTOR_SLOTS; k++) cx.factor[k].node = -1;
  long nd = Long_val(node), off = Long_val(pos);
  if (nd == 0) {
    cx.buf[2 * off] = wre;
    cx.buf[2 * off + 1] = wim;
  } else if (Long_val(cx.ar.lv[nd]) == 0)
    convert_leaf(&cx, nd, off, wre, wim);
  else if (Long_val(cx.ar.lv[nd]) == 1)
    convert_pair(&cx, nd, off, wre, wim);
  else
    convert_node(&cx, nd, off, wre, wim);
  return Val_unit;
}

BYTE_STUB(qcs_convert, argv[0], argv[1], argv[2], argv[3], Double_val(argv[4]),
          Double_val(argv[5]), argv[6])
