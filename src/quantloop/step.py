"""The compiled step: a prepared program as a table of op records.

:class:`~quantloop.loopir.interp.Prepared` binds and checks every operand
of its top-level statements once and keeps what it bound as its ``sites``.
:func:`build`, the one place a step is made, turns them into one record per
statement for ``_native/step.c``, whose ``quantloop_step`` runs the whole
table in one call; :class:`Step` makes that call.  :func:`build` reads the
whole program before it loads the native runtime, so a program that cannot
run compiled, every ``naive`` one among them, never builds or loads it.

A statement gets a record only when the C op computes what its Python
closure computes (up to the summation order ``step.c`` documents):

* an intrinsic call whose handler is one of :data:`COMPILED_OPS`, the
  handlers of :mod:`quantloop.intrinsics` as imported, and not a wrapper
  or a replacement of them;
* an elementwise depth-1 loop that the interpreter runs as one ufunc.

Every pointer and extent comes from a bound, checked array (the
interpreter binds only C-contiguous float32 buffers of their declared
shape), never from the program alone.  Literal arguments the C op cannot
take (a ``head_size`` of 0, heads that do not divide, ``kv_dim`` past
``k``, an odd rope length, a float where an int belongs), operands that
would overlap where the handler copies first, and arrays that are
unaligned, or read-only where written, give the statement no record.  One statement without a record
keeps the whole step on the closures, so the handler's own error still
surfaces there.  Tokens and positions change per call: the runtime checks
them against the extents they index before it writes anything, and a
:class:`Step` call then returns nonzero, for the caller to run the closures
instead.

A packed gemv's record holds its operands like every other record: the
packed codes, which the runtime reads in whole 8-byte words, trusting the
padding :class:`~quantloop.bitcodec.PackedBuffer` keeps after them, the
codebook's centroids, from which the runtime makes its decode table per
call, and the two vectors, with the checks a dense gemv's record gets.
The step is the only way the packed kernel is reached; the closures run
numpy's instead.  A quantized embed's record reads its row through the same
decoder.  Each packed gemv record also has a check, in table order: the
matrix's epsilon and largest centroid magnitude, and, when the caller
bound one, the call on its float shadow as a dense gemv record.  A step
built with a threshold or the dual check runs every packed gemv record
checked, applying the engine's per-call policy in C (the bound, the
fallback over a threshold, the dual check), as :class:`Step` describes.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Mapping

import numpy as np

from . import intrinsics, native
from .loopir.interp import Prepared, Site
from .native import CHECK, OP_RECORD, TABLE, Op
from .quantizer import QuantizedMatrix

__all__ = ["COMPILED_OPS", "NoStep", "Step", "build"]

#: Handler -> op for every intrinsic with a C op, captured when this module is
#: imported: a tracer that patches ``intrinsics.<op>_handler`` later, or a
#: test that registers its own handler, keeps that call on the closures.
COMPILED_OPS: Mapping[Callable, str] = {
    intrinsics.gemv_handler: "gemv",
    intrinsics.embed_handler: "embed",
    intrinsics.rmsnorm_handler: "rmsnorm",
    intrinsics.rope_handler: "rope",
    intrinsics.attention_handler: "attention",
    intrinsics.silu_handler: "silu",
}


class NoStep(Exception):
    """Why a program has no compiled step."""


class NoOp(Exception):
    """Why a statement has no C op."""


class Step:
    """One prepared program's op table, walked by one native call.

    Holds every array the records point into and the one table, packed
    when the step is built, so it needs nothing else to stay valid.
    ``observations`` holds one row per packed gemv record, in program order:
    what its check measured in the last run of a checked step, ``(bound,
    gap, fallback)``.
    """

    def __init__(self, run, records, values, n_params, scratch, checks, keep,
                 counts: native.Counts, threshold: float | None, dual: bool):
        self._values = values
        self.observations = np.zeros((len(checks) // CHECK.size, 3))
        self._n_params = n_params
        self._records = records
        self._keep = (scratch, checks, keep, counts)
        self._run = run
        self._table = TABLE.pack(
            native.address(records), len(records) // OP_RECORD.size, native.address(values),
            native.address(scratch), native.address(checks), ctypes.addressof(counts),
            native.address(self.observations) if threshold is not None or dual else 0,
            0.0 if threshold is None else threshold,
            (threshold is not None) * native.CHECK_THRESHOLD + dual * native.CHECK_DUAL)

    def __call__(self, params) -> int:
        """Run the table with `params` (in the program's order); 0 when it ran.

        Nonzero means a token or position indexes past its table or cache:
        nothing was written, and the closures raise the handler's error.
        """
        values, slot = self._values, 0
        while slot < self._n_params:  # no iterator object: the call allocates nothing
            values[slot] = params[slot]
            slot += 1
        return self._run(self._table)


_ZEROS = (0,) * 6


def _record(kind: int, p: tuple, n: tuple = (), f: tuple = (0.0, 0.0)) -> tuple:
    """The fields of one :data:`~quantloop.native.OP_RECORD`, unused ones zero."""
    return (kind, *p, *_ZEROS[len(p):], *n, *_ZEROS[len(n):], *f)


def _vector(a, what: str, writes: bool = False, ndim: int = 1) -> np.ndarray:
    """`a` if the runtime can take it as an array of `ndim` axes.

    Every array a site holds was bound by the interpreter, which checked it
    C-contiguous float32 of its declared shape; a quantized matrix is not
    an array.
    """
    if not isinstance(a, np.ndarray) or a.ndim != ndim:
        raise NoOp(f"{what} is not a {ndim}-D array")
    flags = a.flags
    if not flags.aligned or (writes and not flags.writeable):
        raise NoOp(f"{what} is unaligned or read-only")
    return a


def _int(value, what: str, low: int = 0) -> int:
    """`value` if it is an int64 literal of at least `low`: a param's name is not."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value < 1 << 63:
        raise NoOp(f"{what} {value!r} is not an int64 >= {low}")
    return value


def _apart(what: str, span: tuple, *others: tuple, same_ok: bool = False) -> None:
    """Refuse the bytes `span` overlapping any of `others` (but, with `same_ok`, equalling one)."""
    lo, hi = span
    for other in others:
        if other[0] < hi and lo < other[1] and not (same_ok and other == span):
            raise NoOp(f"{what} overlaps another operand")


class _Builder:
    """Turns sites into records, one statement at a time."""

    def __init__(self, params: tuple) -> None:
        self.params = params
        self.literals: list[int] = []
        self.arrays: list[np.ndarray] = []  # every array :meth:`span` looked up
        self._spans: dict[int, tuple[int, int]] = {}
        self.keep: list = [self.arrays]
        self.checks: list = []  # every packed gemv record's check, as CHECK fields
        self.scratch_len = 0  # the longest KV cache an attention record reads

    def span(self, a: np.ndarray) -> tuple[int, int]:
        """The first and one-past-last byte address of contiguous `a`, looked up once.

        A lookup costs 0.5 to 2 µs, and one program binds the same activation
        buffers at many sites.  :attr:`arrays` holds every array looked up,
        so no other array reuses a known id, and the step that keeps the list
        keeps alive the memory behind every address.
        """
        known = self._spans.get(id(a))
        if known is None:
            start = native.address(a)
            known = self._spans[id(a)] = (start, start + a.nbytes)
            self.arrays.append(a)
        return known

    def slot(self, site: Site, pos: int, what: str) -> int:
        """Index into the runtime's values of argument `pos`: a param or an int literal."""
        if (name := site.param(pos)) is not None:
            return self.params.index(name)
        self.literals.append(_int(site.args[pos], what, low=-(1 << 63)))
        return len(self.params) + len(self.literals) - 1

    def gemv(self, site: Site) -> tuple:
        (call,) = site.args
        if call.view is None:
            return self.packed_gemv(call)
        if not isinstance(call.a, np.ndarray):
            raise NoOp("gemv matrix was reconstructed for its layout")
        return self.dense(call)

    def operands(self, call, storage: np.ndarray) -> tuple:
        """The addresses of a gemv call's `storage`, x and y, when C can take them.

        x and y were checked 1-D float32 at bind; the call's strided views
        start at their element 0.
        """
        # Written out, not through _vector and _apart: every gemv record, half
        # the table, comes through here.
        x, y = call.x, call.y
        if not (storage.flags.aligned and x.flags.aligned and y.flags.aligned
                and y.flags.writeable):
            raise NoOp("gemv operands are unaligned or y is read-only")
        (a0, a1), (x0, x1), (y0, y1) = self.span(storage), self.span(x), self.span(y)
        if x0 < y1 and y0 < x1 or a0 < y1 and y0 < a1:
            raise NoOp("gemv y overlaps x or the matrix")
        return a0, x0, y0

    def dense(self, call) -> tuple:
        """The record of a gemv call on float storage."""
        a0, x0, y0 = self.operands(call, call.a)
        (rows, cols), (rs, cs), p = call.view.shape, call.view.strides, call.params
        return (Op.GEMV, a0, x0, y0, 0, 0, 0, rows, cols, rs // 4, cs // 4,
                call.x_eff.strides[0] // 4, call.y_eff.strides[0] // 4, p.alpha32, p.beta32)

    def packed(self, q: QuantizedMatrix, codes: np.ndarray) -> tuple:
        """A packed record's leading fields: `q`'s codes and centroids, and
        its rows, cols and code width."""
        return ((self.span(codes)[0], self.span(q.codebook.centroids)[0]),
                (q.rows, q.cols, q.codebook.bit_width))

    def packed_gemv(self, call) -> tuple:
        """The record of a gemv call on packed codes, and its check."""
        q, p = call.a, call.params
        codes = np.frombuffer(q.indices.padded, np.uint8)
        _, x0, y0 = self.operands(call, codes)
        lead_p, lead_n = self.packed(q, codes)
        shadow = _record(0, ()) if call.shadow is None else self.dense(call.shadow)
        self.checks.append((float(q.epsilon), q.codebook.max_abs, *shadow))
        return _record(Op.QGEMV, (*lead_p, x0, y0),
                       (*lead_n, call.x_eff.strides[0] // 4, call.y_eff.strides[0] // 4),
                       (p.alpha32, p.beta32))

    def embed(self, site: Site) -> tuple:
        dst, table = _vector(site.args[0], "embed dst", writes=True), site.args[1]
        token = self.slot(site, 2, "embed token")
        if isinstance(table, QuantizedMatrix):
            if table.cols != dst.size:
                raise NoOp("embed table rows do not fit dst")
            lead_p, lead_n = self.packed(table, np.frombuffer(table.indices.padded, np.uint8))
            return _record(Op.QEMBED, (*lead_p, self.span(dst)[0]), (*lead_n, token))
        _vector(table, "embed table", ndim=2)
        if table.shape[1] != dst.size:
            raise NoOp("embed table rows do not fit dst")
        d, t = self.span(dst), self.span(table)
        _apart("embed dst", d, t)
        return _record(Op.EMBED, (d[0], t[0]), (*table.shape, token))

    def rmsnorm(self, site: Site) -> tuple:
        dst, src, weight = site.args
        dst = _vector(dst, "rmsnorm dst", writes=True)
        n = _vector(src, "rmsnorm src").size
        if not n or dst.size != n or _vector(weight, "rmsnorm weight").size != n:
            raise NoOp("rmsnorm operands differ in length or are empty")
        d, s, w = self.span(dst), self.span(src), self.span(weight)
        _apart("rmsnorm dst", d, s, w, same_ok=True)
        return _record(Op.RMSNORM, (d[0], s[0], w[0]), (n,))

    def silu(self, site: Site) -> tuple:
        (v,) = site.args
        v = _vector(v, "silu v", writes=True)
        return _record(Op.SILU, (self.span(v)[0],), (v.size,))

    def rope(self, site: Site) -> tuple:
        q = _vector(site.args[0], "rope q", writes=True)
        k = _vector(site.args[1], "rope k", writes=True)
        pos = self.slot(site, 2, "rope pos")
        head_size = _int(site.args[3], "rope head_size", low=1)
        kv_dim = _int(site.args[4], "rope kv_dim")
        if head_size % 2 or q.size % 2 or kv_dim % 2 or kv_dim > min(q.size, k.size):
            raise NoOp("rope needs even lengths and kv_dim within q and k")
        sq, sk = self.span(q), self.span(k)
        _apart("rope q", sq, sk)
        inv = self.span(intrinsics._rope_inv_freq(q.size, head_size))
        return _record(Op.ROPE, (sq[0], sk[0], inv[0]), (q.size, kv_dim, pos))

    def attention(self, site: Site) -> tuple:
        out, q, k, v, k_cache, v_cache = site.args[:6]
        out = _vector(out, "attention out", writes=True)
        q, k, v = (_vector(a, "attention q, k and v") for a in (q, k, v))
        k_cache = _vector(k_cache, "attention k_cache", writes=True, ndim=2)
        v_cache = _vector(v_cache, "attention v_cache", writes=True, ndim=2)
        pos = self.slot(site, 6, "attention pos")
        n_heads, n_kv_heads, head_size = (
            _int(site.args[i], what, low=1)
            for i, what in ((7, "n_heads"), (8, "n_kv_heads"), (9, "head_size")))
        rows, cols = k_cache.shape
        if (n_heads % n_kv_heads or n_heads * head_size != q.size or out.size != q.size
                or n_kv_heads * head_size > cols or v_cache.shape != k_cache.shape
                or k.size != cols or v.size != cols):
            raise NoOp("attention heads, q, out, k, v and caches do not fit together")
        so, sq, sk, sv, skc, svc = map(self.span, (out, q, k, v, k_cache, v_cache))
        _apart("attention out", so, sq, sk, sv, skc, svc)
        _apart("attention k_cache", skc, sq, sk, sv, svc)
        _apart("attention v_cache", svc, sq, sk, sv)
        self.scratch_len = max(self.scratch_len, rows)
        return _record(Op.ATTENTION, (so[0], sq[0], sk[0], sv[0], skc[0], svc[0]),
                       (n_heads, n_kv_heads, head_size, pos, rows, cols))

    def elementwise(self, site: Site) -> tuple:
        left, right, out, lo, hi = site.args
        span = self.span
        return _record(Op.ADD if site.op == "add" else Op.MUL,
                       (span(left)[0] + 4 * lo, span(right)[0] + 4 * lo, span(out)[0] + 4 * lo),
                       (hi - lo,))

    #: The record maker of each intrinsic op.
    MAKE = {"gemv": gemv, "embed": embed, "rmsnorm": rmsnorm, "silu": silu, "rope": rope,
            "attention": attention}


def build(prepared: Prepared, ops: Mapping[Callable, str] = COMPILED_OPS, *,
          counts: native.Counts | None = None, threshold: float | None = None,
          dual: bool = False) -> Step:
    """The compiled :class:`Step` of `prepared`; :class:`NoStep` says why there is none.

    `ops` maps each handler that has a C op to the op.  Every run adds
    itself and its gemv records to `counts` (the step's own when None).  A
    `threshold` or `dual` makes the step checked: each run bounds every
    packed gemv record, runs the call on its float shadow instead over the
    threshold, and with `dual` runs both and measures the gap.  Every
    statement's record is packed before the native runtime is loaded.  The
    build takes ``prepared.sites``, so that no site outlives it: a program
    builds one step.
    """
    statements, params = prepared.function.body, tuple(prepared.program.params)
    sites, prepared.sites = prepared.sites, None
    b = _Builder(params)
    # Each record is packed into the table as it is built, so no list of
    # them sits beside it.
    table = np.empty(len(statements) * OP_RECORD.size, np.uint8)
    for i, stmt in enumerate(statements):
        site = sites[i]
        if site is None:
            raise NoStep(f"statement {i} ({type(stmt).__name__}) has no C op")
        if isinstance(site.op, str):  # an elementwise loop
            op, make = site.op, _Builder.elementwise
        else:
            op = ops.get(site.op)
            make = _Builder.MAKE.get(op)
        if make is None:
            raise NoStep(f"statement {i} ({stmt.name}) has a handler that is not quantloop's own")
        try:
            OP_RECORD.pack_into(table, i * OP_RECORD.size, *make(b, site))
        except NoOp as exc:
            raise NoStep(f"statement {i} ({op}): {exc}") from None
    runtime = native.load()
    if runtime.step is None:
        raise NoStep(f"no native runtime: {runtime.reason}")
    values = np.zeros(len(params) + len(b.literals), np.int64)
    values[len(params):] = b.literals
    scratch = np.empty(max(b.scratch_len, 1), np.float32)
    checks = np.empty(len(b.checks) * CHECK.size, np.uint8)
    for i, fields in enumerate(b.checks):
        CHECK.pack_into(checks, i * CHECK.size, *fields)
    return Step(runtime.step, table, values, len(params), scratch, checks, b.keep,
                native.Counts() if counts is None else counts, threshold, dual)
