/* The compiled decode step: one call walks a table of op records.
 *
 * quantloop.step fills the table once, when a program is prepared, from the
 * operands the interpreter bound and checked; quantloop_step then runs every
 * record in order for one set of param values.  Every pointer and extent in
 * a record comes from a bound, checked numpy array (quantloop.step says which
 * checks each op needs), and the runtime allocates nothing: its only scratch
 * is the table's attention row, one float per position of the longest KV
 * cache, which every attention record reuses for every head.
 *
 * Integer arguments that may change per call (embed's token, rope's and
 * attention's pos) are slots into `vals`: the program's params first, then
 * its literals.  Before any record runs, every such value is checked against
 * the extent it indexes, so an out-of-range token or pos writes nothing and
 * returns 1 + the index of the first record that would read out of bounds.
 *
 * A packed gemv record may also be checked.  quantloop.step gives each one a
 * check: the matrix's epsilon and largest centroid magnitude, and the same
 * call on its float shadow as a gemv record writing a scratch y (kind 0
 * when there is no shadow).  A table with observations runs every packed
 * record checked: it bounds the call, falls back to the shadow over the
 * threshold or runs both under the dual check, writes (bound, gap,
 * fallback) to the record's row of the observations and adds them to the
 * counters.  Every run adds itself and its gemv records to the counters,
 * whose layout quantloop.runtime.EngineStats shares.
 *
 * Arithmetic, with each float operation rounded to float32 on its own (build
 * with -ffp-contract=off, never -ffast-math):
 *
 *   dot      products k < n8 = n - n % 8 go to accumulator k % 8 in
 *            increasing k, the accumulators are combined as
 *            ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), then the
 *            products n8 <= k < n are added left to right: the order of the
 *            packed kernel in gemv.c;
 *   gemv     y[i] = fl(fl(alpha * s_i) + fl(beta * y[i])), s_i a dot, the
 *            store of every kernel in quantloop.kernels;
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
 *            any term is; a gap that is not <= the bound is a violation, and
 *            the counters' maxima keep a NaN once they see one;
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

#include "qgemv.h"

enum {
    OP_GEMV = 1,  /* p: a, x, y; n: rows, cols, row stride, col stride, incx, incy; f: alpha, beta */
    OP_QGEMV,     /* p: quantloop_qgemv_args; n: index of its check */
    OP_EMBED,     /* p: dst, table; n: rows, cols, token slot */
    OP_QEMBED,    /* p: dst, codes, centroids; n: rows, cols, token slot, codes bytes, bits */
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
} quantloop_counts;

enum { CHECK_THRESHOLD = 1, CHECK_DUAL = 2 };

/* A table: its records, the values their slots index, the attention row,
 * the packed records' checks, the counters and, for a checked run, the
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

static float dot(const float *a, int64_t inca, const float *b, int64_t incb, int64_t n)
{
    float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const int64_t n8 = n - n % 8;
    if (inca == 1 && incb == 1) {
        for (int64_t k = 0; k < n8; k += 8)
            for (int j = 0; j < 8; j++)
                acc[j] += a[k + j] * b[k + j];
    } else {
        for (int64_t k = 0; k < n8; k += 8)
            for (int j = 0; j < 8; j++)
                acc[j] += a[(k + j) * inca] * b[(k + j) * incb];
    }
    float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (int64_t k = n8; k < n; k++)
        s += a[k * inca] * b[k * incb];
    return s;
}

static void gemv(const quantloop_op *o)
{
    const float *a = o->p[0], *x = o->p[1];
    float *y = o->p[2];
    const int64_t rows = o->n[0], cols = o->n[1], rs = o->n[2], cs = o->n[3];
    const int64_t incx = o->n[4], incy = o->n[5];
    const float alpha = o->f[0], beta = o->f[1];
    for (int64_t i = 0; i < rows; i++) {
        const float s = dot(a + i * rs, cs, x, incx, cols);
        float *yi = y + i * incy;
        *yi = alpha * s + beta * *yi;
    }
}

/* The larger of m and v; NaN once either is. */
static double nanmax(double m, double v)
{
    return m != m || v <= m ? m : v;
}

static void copy(float *dst, const float *src, int64_t n, int64_t inc)
{
    for (int64_t i = 0; i < n; i++)
        dst[i * inc] = src[i * inc];
}

/* runtime_bound_check's float32 bound on the call, before it stores. */
static double bound(const quantloop_qgemv_args *q, const quantloop_check *c)
{
    const int64_t n = q->cols;
    const double u = 0x1p-24, nu = (double)n * u, g = nu < 1.0 ? nu / (1.0 - nu) : INFINITY;
    const double a = fabs((double)q->alpha), b = fabs((double)q->beta);
    const double eps = c->epsilon, cm = c->max_abs;
    double l1 = 0.0;
    for (int64_t k = 0; k < n; k++)
        l1 += fabs((double)q->x[k * q->incx]);
    double r = a * (eps + g * (2.0 * cm + eps)) * l1;
    if (a != 1.0 || b != 0.0) {
        double y_max = 0.0;
        if (b != 0.0)
            for (int64_t i = 0; i < q->rows; i++)
                y_max = nanmax(y_max, fabs((double)q->y[i * q->incy]));
        r += (2 * u + u * u) * a * (1.0 + g) * (2.0 * cm + eps) * l1;
        r += 2 * u * (1.0 + u) * b * y_max;
    }
    return nextafter(r * (1.0 + (double)(n + 16) * 0x1p-52), INFINITY);
}

static void checked_qgemv(const quantloop_op *o, const quantloop_table *t)
{
    const quantloop_qgemv_args *q = o->p[0];
    const quantloop_check *c = t->checks + o->n[0];
    const quantloop_op *f = &c->shadow;
    quantloop_counts *counts = t->counts;
    double *obs = t->obs + 3 * o->n[0];
    float *y = q->y, *s = f->p[2];
    const int64_t rows = q->rows, inc = q->incy;
    const int shadowed = f->kind == OP_GEMV;
    const double b = bound(q, c);
    const int fallback = shadowed && (t->flags & CHECK_THRESHOLD) && !(b <= t->threshold);
    double gap = 0.0;
    if (fallback) {
        copy(s, y, rows, inc);
        gemv(f);
        copy(y, s, rows, inc);
    } else if (shadowed && (t->flags & CHECK_DUAL)) {
        copy(s, y, rows, inc);
        quantloop_qgemv(q);
        gemv(f);
        for (int64_t i = 0; i < rows; i++)
            gap = nanmax(gap, fabs((double)y[i * inc] - (double)s[i * inc]));
        counts->bound_violations += !(gap <= b);
        counts->max_dual_diff = nanmax(counts->max_dual_diff, gap);
    } else {
        quantloop_qgemv(q);
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
    float *dst = o->p[0];
    const uint8_t *codes = o->p[1];
    const float *c = o->p[2];
    const int64_t cols = o->n[1], nbytes = o->n[3];
    const int b = (int)o->n[4];
    const unsigned mask = (1u << b) - 1;
    /* A code of b <= 8 bits spans at most two bytes; the second is read
     * only when it lies inside the buffer. */
    for (int64_t k = 0; k < cols; k++) {
        const int64_t bit = (token * cols + k) * b, at = bit >> 3;
        unsigned v = codes[at];
        if (at + 1 < nbytes)
            v |= (unsigned)codes[at + 1] << 8;
        dst[k] = c[(v >> (bit & 7)) & mask];
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
        const int64_t col = (h / group) * hs;
        const float *qh = q + h * hs;
        for (int64_t t = 0; t < rows; t++)
            s[t] = dot(qh, 1, k_cache + t * cols + col, 1, hs) * scale;
        float m = s[0];
        for (int64_t t = 1; t < rows; t++)
            m = s[t] > m ? s[t] : m;
        float sum = 0;
        for (int64_t t = 0; t < rows; t++) {
            s[t] = expf(s[t] - m);
            sum += s[t];
        }
        float *oh = out + h * hs;
        for (int64_t d = 0; d < hs; d++)
            oh[d] = 0;
        for (int64_t t = 0; t < rows; t++) {
            const float w = s[t] / sum;
            const float *vt = v_cache + t * cols + col;
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
    case OP_QEMBED:
        return vals[o->n[2]] < 0 || vals[o->n[2]] >= o->n[0];
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
                checked_qgemv(o, table);
            else
                quantloop_qgemv(o->p[0]);
            table->counts->gemv_calls++;
            table->counts->quantized_gemv_calls++;
            break;
        case OP_EMBED:
            memcpy(o->p[0], (const float *)o->p[1] + vals[o->n[2]] * o->n[1],
                   (size_t)o->n[1] * sizeof(float));
            break;
        case OP_QEMBED:
            qembed(o, vals[o->n[2]]);
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
