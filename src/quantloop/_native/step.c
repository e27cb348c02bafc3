/* The compiled decode step: one call walks a table of op records.
 *
 * quantloop.step fills the table once, when a program is prepared, from the
 * operands the interpreter bound and checked; quantloop_step then runs every
 * record in order for one set of param values.  Every pointer and extent in
 * a record comes from a bound, checked numpy array (quantloop.step says which
 * checks each op needs), and the runtime allocates nothing: its scratch is
 * the table's attention row, one float per position of the longest KV
 * cache, which every attention record reuses for every head, and, on the
 * stack, a buffer of decoded codes and a packed record's pair table.
 *
 * Integer arguments that may change per call (embed's token, rope's and
 * attention's pos) are slots into `vals`: the program's params first, then
 * its literals.  Before any record runs, every such value is checked against
 * the extent it indexes, so an out-of-range token or pos writes nothing and
 * returns 1 + the index of the first record that would read out of bounds.
 *
 * A packed record (a quantized gemv or embed) reads a stream of b-bit codes,
 * 1 <= b <= 8, packed by quantloop.bitcodec: code e sits at bits
 * [e*b, (e+1)*b), least-significant bit first, and a rows x cols matrix is
 * stored row-major, code e = i * cols + k.  Eight consecutive codes starting
 * at a multiple of 8 fill exactly b whole bytes, so the stream is decoded
 * one such group at a time, read as a little-endian 64-bit word and split
 * into fields that are mapped through a table made from the record's 2^b
 * codebook centroids c (quantloop.quantizer.Codebook.centroids) once per
 * call:
 *
 *   b <= 4: a field is 2b bits, a pair of codes lo | hi << b, and the table
 *           holds 2^(2b) pairs of float32 values (c[lo], c[hi]) on the stack;
 *   b > 4:  a field is one b-bit code and the table is the centroids.
 *
 * A field is masked to its width, so every table read is in range.  Every
 * read of the stream is one whole word: quantloop.bitcodec.PackedBuffer
 * guarantees that its trailing zero guard byte is followed in memory by
 * bitcodec.PADDING = 6 readable bytes, so an 8-byte word read from any byte
 * of the payload, the last one included, ends inside them, and no read needs
 * a bound.  Codes past the last one of the matrix may be decoded from the
 * guard and the padding, but they are never used.
 *
 * On an x86-64 CPU with AVX2, a packed gemv with unit incx runs a vector path
 * instead (qgemv_avx2 for b <= 4, qgemv_gather_avx2 for b = 5..8).  Both are
 * compiled with a target attribute inside this portable library, no -m flag,
 * and chosen once, when the library is loaded (quantloop_packed_avx2).  They
 * decode a window of 8 codes e .. e + 7 that may start at any code, so a row
 * needs no group alignment.  The window's bits start at bit off = (e*b) & 7
 * of byte (e*b) >> 3.
 *
 * At b <= 4 the 32 bits from there are broadcast to 8 lanes, lane j is
 * shifted right by j*b, and one permute maps the lanes through a register
 * whose lane m holds c[m mod 2^b] (b = 4 blends in a second over centroids
 * 8-15 on bit 3).  No lane is masked: vpermps reads only an index's low 3
 * bits, which at b < 3 are the code plus a multiple of 2^b, so the repeated
 * centroids map them to the code's own, and the blend reads only bit 3.  The
 * centroids are copied into the two registers once per call, and each width
 * has its own inlined body, so b is a constant in the loops.  The 32 bits
 * come from one of two reads:
 *
 *   fast  the 4 bytes from the window's first byte, read as one word, with
 *         off added to every lane's shift; a call reads so when every row
 *         starts where off + 8b <= 32 (always at b <= 3; at b = 4 when cols is
 *         even, so that every row starts on a byte), and this keeps the
 *         shuffle work to one permute;
 *   word  otherwise, and for a row's tail codes: the group word at that byte
 *         shifted right by off.
 *
 * Row i starts at bit offset i*cols*b & 7, which depends only on i % 8, so
 * the fast reads' 8 sets of shifts are built once per call.
 *
 * At b = 5..8 every window is read as a word, and the word's 64 - off bits
 * hold all 8 codes, since off + 8b <= 64: b = 8 always starts on a byte, and
 * for b <= 7, 7 + 56 = 63.  The word is broadcast to four 64-bit lanes
 * shifted right by 0, 2b, 4b, 6b and four shifted by b, 3b, 5b, 7b; the
 * second four's low halves move up by 32 bits and are blended into the odd
 * 32-bit lanes, so lane j holds code j in its low bits, which are masked to
 * b bits and gathered from the record's 2^b centroids.  The mask keeps every
 * index below 2^b, so the gather reads only the centroids.
 *
 * At b <= 4 rows run in blocks of 8 from a row that is a multiple of 8,
 * against one load of x per window, and the 8 rows' accumulators are combined
 * by the dense path's tree (sum8, below); at b = 5..8 four rows run at once.
 * The rest run one at a time.  Lane j of a row is its accumulator j, with a
 * multiply then an add and no fused multiply-add, each row adds its tail codes
 * left to right, and the summation order below is unchanged, so both paths
 * give the same bits.
 *
 * The dense gemv has an AVX2 path too (gemv_avx2), chosen by the same flag,
 * for records with unit column stride and unit incx; every other dense record,
 * and the rows after the last whole block of 8, run the portable kernel.  Rows
 * run in blocks of 8 against one load of x per 8 columns (dot8): lane j of row
 * r's register is its accumulator j, with a multiply then an add and no fused
 * multiply-add, and two levels of hadd then the sum of the two 128-bit halves
 * (sum8, which the packed 8-row blocks share) give
 * ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) for all 8 rows at once,
 * combine's tree (IEEE addition is commutative, so the order inside each
 * pair changes no bit).  Each row then adds its tail products left to right
 * and stores as gemv does, so its sums are the portable kernel's.
 *
 * Attention takes AVX2 paths under the same flag too.  A head's scores are a
 * dense gemv over its slice of the K cache (rows are positions, the row stride
 * is the cache's cols, x is the head's q), so positions run in blocks of 8
 * through dot8 (scores_avx2), each score then times the scale, and the
 * positions after the last whole block run dot.  The max, expf and the sum of
 * the exponentials stay scalar and in position order: a vector expf would
 * change bits.  weigh_avx2 then divides the exponentials by the sum 8 at a
 * time (IEEE division is correctly rounded, lane or scalar alike) and adds
 * weight * value to each output in position order, 8 outputs per register
 * with a multiply then an add, the last head_size % 8 one at a time.  Each
 * output sees the same operations in the same order as on the portable path,
 * so both give the same bits.
 *
 * The upper-state rule: an AVX2 function must not run or call code compiled
 * without AVX (this file's portable functions are SSE code) while the upper
 * halves of the ymm registers are dirty.  It clears them first
 * (_mm256_zeroupper) or inlines what it calls: the compiler does not always
 * clear them before a call.  Otherwise every SSE instruction can pay for the
 * dirty state: calling dot for the leftover rows from inside gemv_avx2 took
 * the toy's float step from about 20 to over 80 us.  So gemv_avx2,
 * scores_avx2 and weigh_avx2 end with _mm256_zeroupper, and the SSE code that
 * follows them (dot for the leftover rows and positions, libm's expf) runs
 * after they return.
 *
 * A packed gemv record may also be checked.  quantloop.step gives each one a
 * check, in table order: the matrix's epsilon and largest centroid
 * magnitude, and the same call on its float shadow as a gemv record writing
 * a scratch y (kind 0 when there is no shadow).  A table with observations
 * runs every packed gemv record checked: it bounds the call, falls back to
 * the shadow over the threshold or runs both under the dual check, writes
 * (bound, gap, fallback) to the record's row of the observations and adds
 * them to the counters, whose maxima include the worst gap / bound of the
 * dual check.  Every run adds itself and its gemv records to the counters,
 * whose layout quantloop.runtime.EngineStats shares.
 *
 * Arithmetic, with each float operation rounded to float32 on its own (build
 * with -ffp-contract=off, never -ffast-math, which would fuse or reorder
 * these operations and break NaN propagation):
 *
 *   dot      each product w[k] * x[k] is rounded on its own; products
 *            k < n8 = n - n % 8 go to accumulator k % 8 in increasing k, the
 *            accumulators are combined as
 *            ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), then the
 *            products n8 <= k < n are added left to right (accumulate and
 *            combine); a packed gemv row sums its decoded codes so too;
 *   gemv     y[i] = fl(fl(alpha * s_i) + fl(beta * y[i])), s_i a dot, the
 *            store of every kernel in quantloop.kernels, so beta == 0 still
 *            propagates a NaN or infinity of the old y;
 *   bound    quantloop.kernels.runtime_bound_check's, operation for operation
 *            in double: a = |alpha|, b = |beta|, u = 2^-24, g = nu / (1 - nu)
 *            for nu = n u < 1 (else inf), L = sum |x[k]| left to right, c the
 *            largest centroid magnitude;
 *            a (eps + g (2c + eps)) L, plus, unless a == 1 and b == 0,
 *            (2u + u^2) a (1 + g) (2c + eps) L + 2u (1 + u) b max|y0| (the
 *            old y's, read before the store, 0 when b == 0), times
 *            1 + (n + 16) 2^-52, then rounded up to the next double;
 *   fallback with a threshold, when !(bound <= threshold), so a NaN bound
 *            falls back: y is copied to the shadow's scratch, the shadow's
 *            gemv runs there and the scratch is copied back;
 *   gap      under the dual check, y is copied to the scratch, the packed
 *            call runs on y and the shadow's gemv on the scratch, and the gap
 *            is max over i of |(double)y[i] - (double)scratch[i]|, NaN if
 *            any term is; a gap that is not <= the bound is a violation, the
 *            ratio gap / bound reads 0 for 0 / 0 and inf for a positive gap
 *            over a zero bound, and the counters' maxima keep a NaN once they
 *            see one;
 *   rmsnorm  ss = dot(src, src) / n + 1e-5 in double, inv = (float)(1 / sqrt(ss)),
 *            dst[i] = (src[i] * inv) * weight[i];
 *   rope     pair i turns by pos * inv_freq[i] (double), whose cos and sin are
 *            rounded to float; (v0, v1) -> (v0 c - v1 s, v1 c + v0 s);
 *   attention scores are dots times (float)(1 / sqrt(head_size)), softmax
 *            subtracts the max, takes expf, and divides by the in-order sum;
 *            out = sum over positions, in order, of weight * value;
 *   silu     v = v * (1 / (1 + expf(-v)));
 *   add, mul out[i] = left[i] op right[i].
 *
 * So gemv, rmsnorm and attention sum in another order than numpy's, and agree
 * with the Python handlers within float32 rounding; the bound sums |x| in
 * another order than numpy's pairwise sum, within a few double ulps; the
 * elementwise ops, the embeds and rope's rotation are the handlers'
 * operations one for one.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "group words are read as little-endian integers"
#endif

enum {
    OP_GEMV = 1,  /* p: a, x, y; n: rows, cols, row stride, col stride, incx, incy; f: alpha, beta */
    OP_QGEMV,     /* p: codes, centroids, x, y; n: rows, cols, bits, incx, incy; f: alpha, beta */
    OP_EMBED,     /* p: dst, table; n: rows, cols, token slot */
    OP_QEMBED,    /* p: codes, centroids, dst; n: rows, cols, bits, token slot */
    OP_RMSNORM,   /* p: dst, src, weight; n: length */
    OP_ROPE,      /* p: q, k, inv_freq (double, length / 2 of them); n: length of q, kv_dim, pos slot */
    OP_ATTENTION, /* p: out, q, k, v, k_cache, v_cache; n: n_heads, n_kv_heads, head_size,
                     pos slot, cache rows, cache cols */
    OP_SILU,      /* p: v; n: length */
    OP_ADD,       /* p: left, right, out; n: length */
    OP_MUL,
};

typedef struct {
    int64_t kind;
    void *p[6];
    int64_t n[6];
    float f[2];
} quantloop_op;

/* What a packed gemv record's check reads besides the call. */
typedef struct {
    double epsilon;      /* QuantizedMatrix.epsilon */
    double max_abs;      /* its Codebook.max_abs */
    quantloop_op shadow; /* OP_GEMV on the float shadow into its scratch y, or kind 0 */
} quantloop_check;

/* The counters a run adds to, field for field quantloop.runtime.EngineStats. */
typedef struct {
    int64_t forwards; /* one per run */
    int64_t gemv_calls;
    int64_t quantized_gemv_calls;
    int64_t fallback_calls;
    int64_t bound_checks;
    int64_t bound_violations;
    double max_bound;
    double max_dual_diff;
    double max_dual_ratio; /* the largest gap / bound, by ratio() */
} quantloop_counts;

enum { CHECK_THRESHOLD = 1, CHECK_DUAL = 2 };

/* A table: its records, the values their slots index, the attention row,
 * the packed gemv records' checks, the counters and, for a checked run, the
 * observations (bound, gap, fallback per check), the threshold and flags. */
typedef struct {
    const quantloop_op *ops;
    int64_t n_ops;
    const int64_t *vals;
    float *scratch;
    const quantloop_check *checks;
    quantloop_counts *counts;
    double *obs; /* NULL: the packed records run unchecked */
    double threshold;
    int64_t flags;
} quantloop_table;

/* The sizes quantloop.step must match before it fills a table. */
int64_t quantloop_op_size(void) { return (int64_t)sizeof(quantloop_op); }
int64_t quantloop_check_size(void) { return (int64_t)sizeof(quantloop_check); }

/* 1 when gemv, qgemv and attention take their AVX2 paths: set once, when the
 * library is loaded, on an x86-64 CPU with AVX2, and 0 everywhere else.  Only
 * tests write it, 0 to run the portable paths. */
int quantloop_packed_avx2 = 0;

/* Codes a packed record decodes per step into its stack buffer: a multiple of 8. */
#define CHUNK 512

/* Add the products a[k] * b[k] for k < n8, a multiple of 8, to acc[k % 8] in
 * increasing k (strides in elements). */
static inline void accumulate(float acc[8], const float *a, int64_t inca, const float *b,
                              int64_t incb, int64_t n8)
{
    if (inca == 1 && incb == 1) {
        for (int64_t k = 0; k < n8; k += 8)
            for (int j = 0; j < 8; j++)
                acc[j] += a[k + j] * b[k + j];
    } else {
        for (int64_t k = 0; k < n8; k += 8)
            for (int j = 0; j < 8; j++)
                acc[j] += a[(k + j) * inca] * b[(k + j) * incb];
    }
}

/* The accumulators' sum. */
static inline float tree(const float acc[8])
{
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/* The accumulators' sum, then the `tail` products a[k] * b[k] left to right. */
static inline float combine(const float acc[8], const float *a, int64_t inca, const float *b,
                            int64_t incb, int64_t tail)
{
    float s = tree(acc);
    for (int64_t k = 0; k < tail; k++)
        s += a[k * inca] * b[k * incb];
    return s;
}

static float dot(const float *a, int64_t inca, const float *b, int64_t incb, int64_t n)
{
    float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const int64_t n8 = n - n % 8;
    accumulate(acc, a, inca, b, incb, n8);
    return combine(acc, a + n8 * inca, inca, b + n8 * incb, incb, n - n8);
}

#if defined(__x86_64__)
#define AVX2 __attribute__((target("avx2")))

/* Lane r of the result: ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)) over
 * the lanes a of acc[r], combine's tree for 8 rows at once.  Two levels of hadd
 * put row r's (a0 + a1) + (a2 + a3) in lane r of the low half of `lo` (rows
 * 0-3) or `hi` (rows 4-7) and its (a4 + a5) + (a6 + a7) in lane r of the high
 * half; the sum of the 128-bit halves finishes the tree. */
static inline __attribute__((always_inline)) AVX2 __m256 sum8(const __m256 acc[8])
{
    const __m256 lo =
        _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]), _mm256_hadd_ps(acc[2], acc[3]));
    const __m256 hi =
        _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]), _mm256_hadd_ps(acc[6], acc[7]));
    return _mm256_add_ps(_mm256_permute2f128_ps(lo, hi, 0x20),
                         _mm256_permute2f128_ps(lo, hi, 0x31));
}

/* The dots of rows a, a + rs, ..., a + 7 rs with x, n terms each, into s[0..7]:
 * lane j of acc[r] is row r's accumulator j, sum8 gives every row's combine tree
 * at once, and each row then adds its tail products left to right, so every sum
 * is dot's.  Inlined into its AVX2 callers, which clear the upper halves before
 * they return. */
static inline __attribute__((always_inline)) AVX2 void dot8(const float *a, int64_t rs,
                                                            const float *x, int64_t n, float s[8])
{
    const int64_t n8 = n - n % 8;
    __m256 acc[8];
    for (int r = 0; r < 8; r++)
        acc[r] = _mm256_setzero_ps();
    for (int64_t k = 0; k < n8; k += 8) {
        const __m256 xk = _mm256_loadu_ps(x + k);
        for (int r = 0; r < 8; r++) {
            const __m256 w = _mm256_loadu_ps(a + r * rs + k);
            acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(w, xk));
        }
    }
    _mm256_storeu_ps(s, sum8(acc));
    for (int r = 0; r < 8; r++)
        for (int64_t k = n8; k < n; k++)
            s[r] += a[r * rs + k] * x[k];
}

/* Dense gemv record `o` with unit column stride and unit incx, rows in blocks
 * of 8 (dot8).  Returns the rows it stored, rows - rows % 8, with the upper
 * halves cleared. */
static AVX2 int64_t gemv_avx2(const quantloop_op *o)
{
    const float *a = o->p[0], *x = o->p[1];
    float *y = o->p[2];
    const int64_t rows = o->n[0] - o->n[0] % 8, cols = o->n[1], rs = o->n[2], incy = o->n[5];
    for (int64_t i = 0; i < rows; i += 8) {
        float s[8];
        dot8(a + i * rs, rs, x, cols, s);
        for (int r = 0; r < 8; r++) {
            float *yi = y + (i + r) * incy;
            *yi = o->f[0] * s[r] + o->f[1] * *yi;
        }
    }
    _mm256_zeroupper();
    return rows;
}

/* Attention scores s[t] = dot(q, k + t rs, hs) * scale for positions t in
 * blocks of 8 (dot8).  Returns the positions it scored, rows - rows % 8, with
 * the upper halves cleared. */
static AVX2 int64_t scores_avx2(const float *k, int64_t rs, const float *q, int64_t hs,
                                int64_t rows, float scale, float *s)
{
    const int64_t rows8 = rows - rows % 8;
    for (int64_t t = 0; t < rows8; t += 8) {
        dot8(k + t * rs, rs, q, hs, s + t);
        _mm256_storeu_ps(s + t, _mm256_mul_ps(_mm256_loadu_ps(s + t), _mm256_set1_ps(scale)));
    }
    _mm256_zeroupper();
    return rows8;
}

/* out[8j + l] = sum over t < rows, in order, of w[t] * v[t rs + 8j + l], for
 * j < nb: lane l of acc[j] is one output's running sum.  Inlined for each
 * constant nb <= 4. */
static inline __attribute__((always_inline)) AVX2 void mix(float *out, const float *v, int64_t rs,
                                                           const float *w, int64_t rows, int nb)
{
    __m256 acc[4];
    for (int j = 0; j < nb; j++)
        acc[j] = _mm256_setzero_ps();
    for (int64_t t = 0; t < rows; t++) {
        const __m256 wt = _mm256_set1_ps(w[t]);
        for (int j = 0; j < nb; j++)
            acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(wt, _mm256_loadu_ps(v + t * rs + 8 * j)));
    }
    for (int j = 0; j < nb; j++)
        _mm256_storeu_ps(out + 8 * j, acc[j]);
}

/* A head's output from its exponentials s[0 .. rows - 1] and their sum: the
 * weights s[t] / sum, divided 8 at a time into s, then out[d] = sum over t, in
 * order, of weight t times v[t rs + d], 8 values of d per register and the
 * hs % 8 last ones one at a time.  Clears the upper halves before it returns. */
static AVX2 void weigh_avx2(float *out, const float *v, int64_t rs, int64_t hs, float *s,
                            int64_t rows, float sum)
{
    const int64_t rows8 = rows - rows % 8, hs8 = hs - hs % 8;
    int64_t t = 0, d = 0;
    for (; t < rows8; t += 8)
        _mm256_storeu_ps(s + t, _mm256_div_ps(_mm256_loadu_ps(s + t), _mm256_set1_ps(sum)));
    for (; t < rows; t++)
        s[t] = s[t] / sum;
    for (; d + 32 <= hs8; d += 32)
        mix(out + d, v + d, rs, s, rows, 4);
    if (d + 16 <= hs8) {
        mix(out + d, v + d, rs, s, rows, 2);
        d += 16;
    }
    if (d < hs8) {
        mix(out + d, v + d, rs, s, rows, 1);
        d += 8;
    }
    for (; d < hs; d++) {
        float acc = 0;
        for (t = 0; t < rows; t++)
            acc += s[t] * v[t * rs + d];
        out[d] = acc;
    }
    _mm256_zeroupper();
}
#endif

static void gemv(const quantloop_op *o)
{
    const float *a = o->p[0], *x = o->p[1];
    float *y = o->p[2];
    const int64_t rows = o->n[0], cols = o->n[1], rs = o->n[2], cs = o->n[3];
    const int64_t incx = o->n[4], incy = o->n[5];
    const float alpha = o->f[0], beta = o->f[1];
    int64_t i = 0;
#if defined(__x86_64__)
    if (quantloop_packed_avx2 && cs == 1 && incx == 1)
        i = gemv_avx2(o);
#endif
    for (; i < rows; i++) {
        const float s = dot(a + i * rs, cs, x, incx, cols);
        float *yi = y + i * incy;
        *yi = alpha * s + beta * *yi;
    }
}

/* The group word at byte `at` of the payload: 8 bytes, the last of them at
 * most the padding's last. */
static inline uint64_t group_word(const uint8_t *codes, int64_t at)
{
    uint64_t w;
    memcpy(&w, codes + at, 8);
    return w;
}

/* The table packed record `o` decodes its fields through: at b <= 4 its
 * centroids' 2^(2b) pairs (c[lo], c[hi]), filled into `pairs`, above that the
 * centroids themselves. */
static const float *decode_table(const quantloop_op *o, float pairs[2 * 256])
{
    const float *c = o->p[1];
    const int b = (int)o->n[2];
    if (b > 4)
        return c;
    for (int hi = 0; hi < 1 << b; hi++)
        for (int lo = 0; lo < 1 << b; lo++) {
            pairs[2 * (lo | hi << b)] = c[lo];
            pairs[2 * (lo | hi << b) + 1] = c[hi];
        }
    return pairs;
}

/* Decode the groups of packed record `o` holding codes e .. e + len - 1
 * through its decode table `t` into `buf`, which holds len + 16 values;
 * returns the position of code e in it. */
static inline const float *decode(const quantloop_op *o, const float *t, int64_t e, int64_t len,
                                  float *buf)
{
    const uint8_t *codes = o->p[0];
    const int b = (int)o->n[2];
    const int64_t g0 = e >> 3, g1 = (e + len - 1) >> 3;
    float *out = buf;
    if (b <= 4) {
        const int f = 2 * b;
        const uint64_t mask = (UINT64_C(1) << f) - 1;
        for (int64_t g = g0; g <= g1; g++, out += 8) {
            const uint64_t w = group_word(codes, g * b);
            memcpy(out + 0, t + 2 * (w & mask), 8);
            memcpy(out + 2, t + 2 * ((w >> f) & mask), 8);
            memcpy(out + 4, t + 2 * ((w >> 2 * f) & mask), 8);
            memcpy(out + 6, t + 2 * ((w >> 3 * f) & mask), 8);
        }
    } else {
        const uint64_t mask = (UINT64_C(1) << b) - 1;
        for (int64_t g = g0; g <= g1; g++, out += 8) {
            const uint64_t w = group_word(codes, g * b);
            for (int m = 0; m < 8; m++)
                out[m] = t[(w >> (b * m)) & mask];
        }
    }
    return buf + (e - 8 * g0);
}

static void qgemv_portable(const quantloop_op *o)
{
    float buf[CHUNK + 16], pairs[2 * 256];
    const float *t = decode_table(o, pairs);
    const float *x = o->p[2];
    float *y = o->p[3];
    const int64_t rows = o->n[0], cols = o->n[1], incx = o->n[3], incy = o->n[4];
    const int64_t n8 = cols - cols % 8;
    const float alpha = o->f[0], beta = o->f[1];
    for (int64_t i = 0; i < rows; i++) {
        float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        const float *w = buf;
        int64_t k = 0;
        for (; k < cols; k += CHUNK) {
            const int64_t len = cols - k < CHUNK ? cols - k : CHUNK;
            const int64_t full = n8 - k < len ? n8 - k : len;
            w = decode(o, t, i * cols + k, len, buf);
            accumulate(acc, w, 1, x + k * incx, incx, full);
        }
        /* The tail lies in the last chunk, which `w` still holds. */
        const int64_t last = k - CHUNK;
        const float s = combine(acc, w + (n8 - last), 1, x + n8 * incx, incx, cols - n8);
        float *yi = y + i * incy;
        *yi = alpha * s + beta * *yi;
    }
}

#if defined(__x86_64__)
/* What the AVX2 path decodes one call's windows with. */
typedef struct {
    const uint8_t *codes;
    __m256i shifts;  /* 0, b, ..., 7b; gathered: 0, 2b, 4b, 6b as 64-bit lanes */
    __m256i fast[8]; /* b <= 4: a fast read's shifts for a row i with i % 8 == m at
                        index m: (i * cols * b & 7) + j * b in lane j */
    __m256 lo, hi;   /* b <= 4: c[j mod 2^b] in lane j of lo; c[8 + j] in hi at b = 4 */
    __m256i mask;    /* gathered: 2^b - 1 */
    __m256i odd;     /* gathered: b, 3b, 5b, 7b as 64-bit lanes */
    const float *c;  /* gathered: the record's 2^b centroids */
} windows;

/* How a window's codes are read: see window. */
enum { WORD, FAST, GATHER };

/* The 8 codes of width b whose first bit is bit `off` of byte `at`, as their
 * centroids, lane j holding the j-th.  FAST: the 4 bytes from `at` on are read
 * as one word and lane j is shifted by off + j*b (`sh`), which needs
 * off + 8b <= 32.  WORD: the group word at `at` is shifted by off, and lane j
 * by j*b; b <= 4 for both, and no lane is masked (see the head of this file).
 * GATHER, for b > 4: the group word shifted by off is split into its 8 codes
 * by two 64-bit shifts (see the head of this file), masked, and gathered from
 * the centroids. */
static inline __attribute__((always_inline)) AVX2 __m256 window(const windows *d, int64_t at,
                                                                int off, __m256i sh, int read,
                                                                int b)
{
    if (read == GATHER) {
        const __m256i w =
            _mm256_set1_epi64x((long long)(group_word(d->codes, at) >> off));
        const __m256i even = _mm256_srlv_epi64(w, d->shifts);
        const __m256i odd = _mm256_slli_epi64(_mm256_srlv_epi64(w, d->odd), 32);
        return _mm256_i32gather_ps(
            d->c, _mm256_and_si256(_mm256_blend_epi32(even, odd, 0xAA), d->mask), 4);
    }
    uint32_t w;
    if (read == FAST)
        memcpy(&w, d->codes + at, 4);
    else
        w = (uint32_t)(group_word(d->codes, at) >> off);
    const __m256i idx = _mm256_srlv_epi32(_mm256_set1_epi32((int32_t)w), sh);
    const __m256 v = _mm256_permutevar8x32_ps(d->lo, idx);
    if (b <= 3)
        return v;
    return _mm256_blendv_ps(v, _mm256_permutevar8x32_ps(d->hi, idx),
                            _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)));
}

/* Rows i .. i + r - 1 as independent chains against one load of x: row
 * i + j's lane l is its accumulator l, combined by sum8 for a block of 8 (which
 * starts at a row i with i % 8 == 0) and one row at a time by tree for fewer
 * (sum8 over zero-padded rows made the gather path spill its accumulators),
 * and each row then adds its tail codes left to right, so every sum is the
 * portable kernel's.  Inlined for each constant r (1, 4 or 8) and, at b <= 4,
 * b, which makes `read` a constant too at b <= 3. */
static inline __attribute__((always_inline)) AVX2 void rows(const quantloop_op *o, const windows *d,
                                                            int64_t i, int r, int read, int b)
{
    const float *x = o->p[2];
    const int64_t cols = o->n[1], n8 = cols - cols % 8;
    int64_t at[8];
    int off[8];
    __m256i sh[8];
    __m256 acc[8];
    for (int j = 0; j < r; j++) {
        const int64_t bit = (i + j) * cols * b;
        at[j] = bit >> 3;
        off[j] = (int)(bit & 7);
        sh[j] = read == FAST ? d->fast[(i + j) & 7] : d->shifts;
        acc[j] = _mm256_setzero_ps();
    }
    for (int64_t k = 0, step = 0; k < n8; k += 8, step += b) {
        const __m256 xk = _mm256_loadu_ps(x + k);
        for (int j = 0; j < r; j++) {
            const __m256 w = window(d, at[j] + step, off[j], sh[j], read, b);
            acc[j] = _mm256_add_ps(acc[j], _mm256_mul_ps(w, xk));
        }
    }
    float s[8];
    if (r == 8)
        _mm256_storeu_ps(s, sum8(acc));
    for (int j = 0; j < r; j++) {
        const int64_t tail = ((i + j) * cols + n8) * b;
        float t[8];
        if (r < 8) {
            float a[8];
            _mm256_storeu_ps(a, acc[j]);
            s[j] = tree(a);
        }
        if (n8 < cols)
            _mm256_storeu_ps(t, window(d, tail >> 3, (int)(tail & 7), d->shifts,
                                       read == GATHER ? GATHER : WORD, b));
        for (int64_t k = n8; k < cols; k++)
            s[j] += t[k - n8] * x[k];
        float *yi = (float *)o->p[3] + (i + j) * o->n[4];
        *yi = o->f[0] * s[j] + o->f[1] * *yi;
    }
}

/* qgemv at one width b <= 4 and unit incx: rows in blocks of 8, the rest one
 * by one, every full window read fast when every row starts where
 * off + 8b <= 32, else as a word.  Row i starts at bit offset i * cols * b & 7,
 * which depends only on i % 8, so the fast reads' shift vectors are built once
 * per call.  Inlined for each b, so no test of b and no variable shift count
 * is left in the loops, and at b <= 3 no word-read body is built. */
static inline __attribute__((always_inline)) AVX2 void qgemv_width(const quantloop_op *o, int b)
{
    const float *centroids = o->p[1];
    const int64_t n_rows = o->n[0], cols = o->n[1];
    const int read = b <= 3 || cols % 2 == 0 ? FAST : WORD;
    float c[16];
    for (int j = 0; j < 16; j++)
        c[j] = centroids[j & ((1 << b) - 1)];
    windows d = {.codes = o->p[0],
                 .shifts = _mm256_setr_epi32(0, b, 2 * b, 3 * b, 4 * b, 5 * b, 6 * b, 7 * b),
                 .lo = _mm256_loadu_ps(c),
                 .hi = _mm256_loadu_ps(c + 8)};
    for (int m = 0; m < 8; m++)
        d.fast[m] = _mm256_add_epi32(d.shifts, _mm256_set1_epi32((int)(m * cols * b & 7)));
    int64_t i = 0;
    for (; i + 8 <= n_rows; i += 8)
        rows(o, &d, i, 8, read, b);
    for (; i < n_rows; i++)
        rows(o, &d, i, 1, read, b);
}

/* qgemv for b <= 4 and unit incx: one body per width. */
static AVX2 void qgemv_avx2(const quantloop_op *o)
{
    switch (o->n[2]) {
    case 1:
        qgemv_width(o, 1);
        break;
    case 2:
        qgemv_width(o, 2);
        break;
    case 3:
        qgemv_width(o, 3);
        break;
    default:
        qgemv_width(o, 4);
    }
}

/* qgemv for b > 4 and unit incx, every window gathered: four rows at a time,
 * the rest one by one.  Four, not 8 as at b <= 4: the gathers limit it, and
 * blocks of 8 rows took 0.97-1.15 times the time of blocks of 4 at 5-8 bits
 * (the toy's shapes and 1376x512, on a 2-core Xeon VM). */
static AVX2 void qgemv_gather_avx2(const quantloop_op *o)
{
    const int64_t n_rows = o->n[0], b = o->n[2];
    const windows d = {.codes = o->p[0],
                       .shifts = _mm256_setr_epi64x(0, 2 * b, 4 * b, 6 * b),
                       .mask = _mm256_set1_epi32((1 << b) - 1),
                       .odd = _mm256_setr_epi64x(b, 3 * b, 5 * b, 7 * b),
                       .c = o->p[1]};
    int64_t i = 0;
    for (; i + 4 <= n_rows; i += 4)
        rows(o, &d, i, 4, GATHER, (int)b);
    for (; i < n_rows; i++)
        rows(o, &d, i, 1, GATHER, (int)b);
}

/* Choose the kernels once, when the library is loaded. */
__attribute__((constructor)) static void choose_packed_kernel(void)
{
    __builtin_cpu_init();
    quantloop_packed_avx2 = __builtin_cpu_supports("avx2") != 0;
}
#endif

/* A packed gemv: with AVX2 chosen and unit incx, the vector path for its
 * width, else the portable kernel. */
static void qgemv(const quantloop_op *o)
{
#if defined(__x86_64__)
    if (quantloop_packed_avx2 && o->n[3] == 1) {
        if (o->n[2] <= 4)
            qgemv_avx2(o);
        else
            qgemv_gather_avx2(o);
        return;
    }
#endif
    qgemv_portable(o);
}

/* The larger of m and v; NaN once either is. */
static double nanmax(double m, double v)
{
    return m != m || v <= m ? m : v;
}

/* gap / bound, where 0 / 0 reads 0 and a positive gap over a zero bound inf. */
static double ratio(double gap, double bound)
{
    if (bound == 0.0)
        return gap != 0.0 ? gap * INFINITY : 0.0; /* a NaN gap stays NaN */
    return gap / bound;
}

static void copy(float *dst, const float *src, int64_t n, int64_t inc)
{
    for (int64_t i = 0; i < n; i++)
        dst[i * inc] = src[i * inc];
}

/* runtime_bound_check's float32 bound on packed gemv record `o`, before it stores. */
static double bound(const quantloop_op *o, const quantloop_check *c)
{
    const float *x = o->p[2], *y = o->p[3];
    const int64_t rows = o->n[0], n = o->n[1], incx = o->n[3], incy = o->n[4];
    const double u = 0x1p-24, nu = (double)n * u, g = nu < 1.0 ? nu / (1.0 - nu) : INFINITY;
    const double a = fabs((double)o->f[0]), b = fabs((double)o->f[1]);
    const double eps = c->epsilon, cm = c->max_abs;
    double l1 = 0.0;
    for (int64_t k = 0; k < n; k++)
        l1 += fabs((double)x[k * incx]);
    double r = a * (eps + g * (2.0 * cm + eps)) * l1;
    if (a != 1.0 || b != 0.0) {
        double y_max = 0.0;
        if (b != 0.0)
            for (int64_t i = 0; i < rows; i++)
                y_max = nanmax(y_max, fabs((double)y[i * incy]));
        r += (2 * u + u * u) * a * (1.0 + g) * (2.0 * cm + eps) * l1;
        r += 2 * u * (1.0 + u) * b * y_max;
    }
    return nextafter(r * (1.0 + (double)(n + 16) * 0x1p-52), INFINITY);
}

/* Packed gemv record `o`, the table's `at`-th, run under check `at`. */
static void checked_qgemv(const quantloop_op *o, const quantloop_table *t, int64_t at)
{
    const quantloop_check *c = t->checks + at;
    const quantloop_op *f = &c->shadow;
    quantloop_counts *counts = t->counts;
    double *obs = t->obs + 3 * at;
    float *y = o->p[3], *s = f->p[2];
    const int64_t rows = o->n[0], inc = o->n[4];
    const int shadowed = f->kind == OP_GEMV;
    const double b = bound(o, c);
    const int fallback = shadowed && (t->flags & CHECK_THRESHOLD) && !(b <= t->threshold);
    double gap = 0.0;
    if (fallback) {
        copy(s, y, rows, inc);
        gemv(f);
        copy(y, s, rows, inc);
    } else if (shadowed && (t->flags & CHECK_DUAL)) {
        copy(s, y, rows, inc);
        qgemv(o);
        gemv(f);
        for (int64_t i = 0; i < rows; i++)
            gap = nanmax(gap, fabs((double)y[i * inc] - (double)s[i * inc]));
        counts->bound_violations += !(gap <= b);
        counts->max_dual_diff = nanmax(counts->max_dual_diff, gap);
        counts->max_dual_ratio = nanmax(counts->max_dual_ratio, ratio(gap, b));
    } else {
        qgemv(o);
    }
    counts->bound_checks++;
    counts->fallback_calls += fallback;
    counts->max_bound = nanmax(counts->max_bound, b);
    obs[0] = b;
    obs[1] = gap;
    obs[2] = fallback;
}

static void qembed(const quantloop_op *o, int64_t token)
{
    float buf[CHUNK + 16], pairs[2 * 256];
    const float *t = decode_table(o, pairs);
    float *dst = o->p[2];
    const int64_t cols = o->n[1];
    for (int64_t k = 0; k < cols; k += CHUNK) {
        const int64_t len = cols - k < CHUNK ? cols - k : CHUNK;
        memcpy(dst + k, decode(o, t, token * cols + k, len, buf), (size_t)len * sizeof(float));
    }
}

static void rmsnorm(const quantloop_op *o)
{
    float *dst = o->p[0];
    const float *src = o->p[1], *w = o->p[2];
    const int64_t n = o->n[0];
    const double ss = (double)dot(src, 1, src, 1, n) / (double)n + 1e-5;
    const float inv = (float)(1.0 / sqrt(ss));
    /* dst may be src or weight: each element is read before it is written. */
    for (int64_t i = 0; i < n; i++)
        dst[i] = (src[i] * inv) * w[i];
}

static void rotate(float *v, float c, float s)
{
    const float v0 = v[0], v1 = v[1];
    v[0] = v0 * c - v1 * s;
    v[1] = v1 * c + v0 * s;
}

static void rope(const quantloop_op *o, int64_t pos)
{
    float *q = o->p[0], *k = o->p[1];
    const double *inv = o->p[2];
    const int64_t pairs = o->n[0] / 2, kv_pairs = o->n[1] / 2;
    for (int64_t i = 0; i < pairs; i++) {
        const double angle = (double)pos * inv[i];
        const float c = (float)cos(angle), s = (float)sin(angle);
        rotate(q + 2 * i, c, s);
        if (i < kv_pairs)
            rotate(k + 2 * i, c, s);
    }
}

static void attention(const quantloop_op *o, int64_t pos, float *s)
{
    float *out = o->p[0], *k_cache = o->p[4], *v_cache = o->p[5];
    const float *q = o->p[1];
    const int64_t n_heads = o->n[0], group = n_heads / o->n[1], hs = o->n[2];
    const int64_t cols = o->n[5], rows = pos + 1;
    const float scale = (float)(1.0 / sqrt((double)hs));
    memcpy(k_cache + pos * cols, o->p[2], (size_t)cols * sizeof(float));
    memcpy(v_cache + pos * cols, o->p[3], (size_t)cols * sizeof(float));
    for (int64_t h = 0; h < n_heads; h++) {
        const float *qh = q + h * hs, *kh = k_cache + (h / group) * hs;
        const float *vh = v_cache + (h / group) * hs;
        float *oh = out + h * hs;
        int64_t t = 0;
#if defined(__x86_64__)
        if (quantloop_packed_avx2)
            t = scores_avx2(kh, cols, qh, hs, rows, scale, s);
#endif
        for (; t < rows; t++)
            s[t] = dot(qh, 1, kh + t * cols, 1, hs) * scale;
        float m = s[0];
        for (t = 1; t < rows; t++)
            m = s[t] > m ? s[t] : m;
        float sum = 0;
        for (t = 0; t < rows; t++) {
            s[t] = expf(s[t] - m);
            sum += s[t];
        }
#if defined(__x86_64__)
        if (quantloop_packed_avx2) {
            weigh_avx2(oh, vh, cols, hs, s, rows, sum);
            continue;
        }
#endif
        for (int64_t d = 0; d < hs; d++)
            oh[d] = 0;
        for (t = 0; t < rows; t++) {
            const float w = s[t] / sum;
            const float *vt = vh + t * cols;
            for (int64_t d = 0; d < hs; d++)
                oh[d] += w * vt[d];
        }
    }
}

static void silu(const quantloop_op *o)
{
    float *v = o->p[0];
    for (int64_t i = 0; i < o->n[0]; i++)
        v[i] = v[i] * (1.0f / (1.0f + expf(-v[i])));
}

static void elementwise(const quantloop_op *o)
{
    const float *l = o->p[0], *r = o->p[1];
    float *out = o->p[2];
    if (o->kind == OP_ADD)
        for (int64_t i = 0; i < o->n[0]; i++)
            out[i] = l[i] + r[i];
    else
        for (int64_t i = 0; i < o->n[0]; i++)
            out[i] = l[i] * r[i];
}

/* 0 when `o` may run with `vals`, else nonzero. */
static int out_of_range(const quantloop_op *o, const int64_t *vals)
{
    switch (o->kind) {
    case OP_EMBED:
        return vals[o->n[2]] < 0 || vals[o->n[2]] >= o->n[0];
    case OP_QEMBED:
        return vals[o->n[3]] < 0 || vals[o->n[3]] >= o->n[0];
    case OP_ATTENTION:
        return vals[o->n[3]] < 0 || vals[o->n[3]] >= o->n[4];
    default:
        return 0;
    }
}

int64_t quantloop_step(const quantloop_table *table)
{
    const quantloop_op *ops = table->ops;
    const int64_t n_ops = table->n_ops, *vals = table->vals;
    int64_t packed = 0; /* packed gemv records so far: the index of the next one's check */
    for (int64_t i = 0; i < n_ops; i++)
        if (out_of_range(ops + i, vals))
            return i + 1;
    for (int64_t i = 0; i < n_ops; i++) {
        const quantloop_op *o = ops + i;
        switch (o->kind) {
        case OP_GEMV:
            gemv(o);
            table->counts->gemv_calls++;
            break;
        case OP_QGEMV:
            if (table->obs)
                checked_qgemv(o, table, packed);
            else
                qgemv(o);
            packed++;
            table->counts->gemv_calls++;
            table->counts->quantized_gemv_calls++;
            break;
        case OP_EMBED:
            memcpy(o->p[0], (const float *)o->p[1] + vals[o->n[2]] * o->n[1],
                   (size_t)o->n[1] * sizeof(float));
            break;
        case OP_QEMBED:
            qembed(o, vals[o->n[3]]);
            break;
        case OP_RMSNORM:
            rmsnorm(o);
            break;
        case OP_ROPE:
            rope(o, vals[o->n[2]]);
            break;
        case OP_ATTENTION:
            attention(o, vals[o->n[3]], table->scratch);
            break;
        case OP_SILU:
            silu(o);
            break;
        case OP_ADD:
        case OP_MUL:
            elementwise(o);
            break;
        }
    }
    table->counts->forwards++;
    return 0;
}
