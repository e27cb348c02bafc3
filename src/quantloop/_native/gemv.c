/* Codes-domain GEMV over a packed stream of b-bit codes, 1 <= b <= 8.
 *
 *     y[i] = alpha * s_i + beta * y[i],   s_i = sum_k w(i, k) * x[k]
 *
 * for a rows x cols matrix stored row-major as one packed code stream
 * (quantloop.bitcodec): code e = i * cols + k sits at bits [e*b, (e+1)*b),
 * least-significant bit first.  Eight consecutive codes starting at a
 * multiple of 8 fill exactly b whole bytes, so the stream is read one such
 * group at a time as a little-endian 64-bit word, and each word is split
 * into fields that are mapped through the codebook's field table
 * (quantloop.quantizer.Codebook.field_table):
 *
 *   b <= 4: a field is 2b bits, a pair of codes lo | hi << b, and the table
 *           holds 2^(2b) pairs of float32 values (c[lo], c[hi]);
 *   b > 4:  a field is one b-bit code and the table is the 2^b centroids.
 *
 * A field is masked to its width, so every table read is in range.
 *
 * Reads stay inside the buffer.  A group word is read as 8 bytes only when
 * all 8 lie before `codes_bytes`; otherwise just the bytes that remain are
 * copied into a zeroed word (the bound tail read).  The stream's trailing
 * zero guard byte, which quantloop.bitcodec.PackedBuffer guarantees, is
 * counted in `codes_bytes`.  Codes past the last one of the matrix may be
 * decoded from those bytes, but they are never summed.
 *
 * Summation order, fixed (the tests emulate it bit for bit).  Each product
 * w(i, k) * x[k] is rounded to float32 on its own.  With n8 = cols - cols % 8,
 * products k < n8 go to accumulator k % 8 in increasing k; the accumulators
 * are combined as ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)); then
 * products n8 <= k < cols are added to that sum left to right.  The store
 * is fl(fl(alpha * s) + fl(beta * y0)), so beta == 0 still propagates a NaN
 * or infinity of the old y.  Build with -ffp-contract=off and never with
 * -ffast-math, which would fuse or reorder these operations.
 *
 * The kernel allocates nothing: every buffer is the caller's.  Vector
 * strides are in elements and may be negative.
 */

#include <stdint.h>
#include <string.h>

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "group words are read as little-endian integers"
#endif

/* Codes decoded per step into the stack buffer: a multiple of 8. */
#define CHUNK 512

typedef struct {
    const uint8_t *codes; /* packed stream: payload, then the guard byte */
    const void *table;    /* Codebook.field_table */
    const float *x;       /* x[0] of the strided x */
    float *y;             /* y[0] of the strided y */
    int64_t codes_bytes;  /* bytes readable from `codes` */
    int64_t rows;
    int64_t cols;
    int64_t incx;
    int64_t incy;
    int32_t bits;
    float alpha;
    float beta;
} quantloop_qgemv_args;

/* The group word at byte `at`, reading nothing at or past byte `nbytes`. */
static inline uint64_t group_word(const uint8_t *codes, int64_t nbytes, int64_t at)
{
    uint64_t w = 0;
    if (at + 8 <= nbytes)
        memcpy(&w, codes + at, 8);
    else
        memcpy(&w, codes + at, (size_t)(nbytes - at));
    return w;
}

/* Decode the groups holding codes e .. e + len - 1 into `buf`; returns the
 * position of code e in it.  `buf` holds len + 16 values. */
static const float *decode(const quantloop_qgemv_args *a, int64_t e, int64_t len, float *buf)
{
    const int b = a->bits;
    const int64_t g0 = e >> 3, g1 = (e + len - 1) >> 3;
    float *out = buf;
    if (b <= 4) {
        const int f = 2 * b;
        const uint64_t mask = (UINT64_C(1) << f) - 1;
        const unsigned char *pairs = a->table;
        for (int64_t g = g0; g <= g1; g++, out += 8) {
            const uint64_t w = group_word(a->codes, a->codes_bytes, g * b);
            memcpy(out + 0, pairs + 8 * (w & mask), 8);
            memcpy(out + 2, pairs + 8 * ((w >> f) & mask), 8);
            memcpy(out + 4, pairs + 8 * ((w >> 2 * f) & mask), 8);
            memcpy(out + 6, pairs + 8 * ((w >> 3 * f) & mask), 8);
        }
    } else {
        const uint64_t mask = (UINT64_C(1) << b) - 1;
        const float *c = a->table;
        for (int64_t g = g0; g <= g1; g++, out += 8) {
            const uint64_t w = group_word(a->codes, a->codes_bytes, g * b);
            for (int m = 0; m < 8; m++)
                out[m] = c[(w >> (b * m)) & mask];
        }
    }
    return buf + (e - 8 * g0);
}

void quantloop_qgemv(const quantloop_qgemv_args *a)
{
    float buf[CHUNK + 16];
    const int64_t cols = a->cols, incx = a->incx, n8 = cols - cols % 8;
    const float *x = a->x;
    for (int64_t i = 0; i < a->rows; i++) {
        float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        const float *w = buf;
        int64_t k = 0;
        for (; k < cols; k += CHUNK) {
            const int64_t len = cols - k < CHUNK ? cols - k : CHUNK;
            const int64_t full = n8 - k < len ? n8 - k : len;
            w = decode(a, i * cols + k, len, buf);
            if (incx == 1) {
                for (int64_t t = 0; t < full; t += 8)
                    for (int j = 0; j < 8; j++)
                        acc[j] += w[t + j] * x[k + t + j];
            } else {
                for (int64_t t = 0; t < full; t += 8)
                    for (int j = 0; j < 8; j++)
                        acc[j] += w[t + j] * x[(k + t + j) * incx];
            }
        }
        /* The tail lies in the last chunk, which `w` still holds. */
        const int64_t last = k - CHUNK;
        float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (int64_t t = n8; t < cols; t++)
            s += w[t - last] * x[t * incx];
        float *y = a->y + i * a->incy;
        *y = a->alpha * s + a->beta * *y;
    }
}
