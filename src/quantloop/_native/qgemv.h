/* One packed GEMV call's operands, shared by gemv.c and step.c.
 * quantloop.native.GemvArgs mirrors this struct field for field. */

#ifndef QUANTLOOP_QGEMV_H
#define QUANTLOOP_QGEMV_H

#include <stdint.h>

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

void quantloop_qgemv(const quantloop_qgemv_args *a);

#endif
