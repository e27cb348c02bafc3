"""Structural matcher for the GEMV loop idiom.

The canonical idiom is a depth-2 counted nest::

    for i in 0..M {            # output loop
      acc s = 0.0
      for k in 0..N {          # reduction loop
        load a = A[...]        # 2-D access over (i, k)
        load t = x[k]          # 1-D access over k
        update s += a * t
      }
      store y[i] = s           # or alpha*s, or beta*y[i] + alpha*s
    }

:func:`match_nest` reads the nest directly.  Each reduction factor, the
stored accumulator and the previous output value may carry a constant
factor (``c * v`` in either order, see :func:`_scaled`); the stored value is
the scaled accumulator or the sum of both scaled terms in either order; the
matrix load is one of the four 2-D access forms of
:func:`match_array_access`.  The matcher lists every statement it read the
idiom from, and a nest only becomes a candidate when *every* statement in
it is accounted for, which is what makes the pass conservative about extra
side effects.

Failures carry one of six reason codes (:class:`SkipReason`): nests
shallower than two loops, subscripts outside the recognized affine shapes,
leftover statements / interfering accesses (including operand aliasing),
2-D accesses whose storage order cannot be inferred, strided or offset
vector accesses, which are recognized but deliberately not rewritten, and
loop bounds that are affine but not constant (they name a declared param),
so the trip count is not known when the pass runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..loopir.nodes import (
    AccumInit,
    AccumUpdate,
    AffineExpr,
    BinOp,
    Load,
    Loop,
    NonAffineExpr,
    Operand,
    Store,
)

__all__ = [
    "AccessPattern",
    "GemvCandidate",
    "MatchFailure",
    "SkipReason",
    "match_array_access",
    "match_nest",
]


class SkipReason(str, enum.Enum):
    NOT_DEEP_ENOUGH = "not-deep-enough"
    NON_AFFINE = "non-affine"
    EXTRA_SIDE_EFFECT = "extra-side-effect"
    LAYOUT_UNKNOWN = "layout-unknown"
    STRIDED = "strided"
    SYMBOLIC_TRIP_COUNT = "symbolic-trip-count"


class MatchFailure(Exception):
    """A nest does not fit the idiom; says why."""

    def __init__(self, reason: SkipReason, detail: str) -> None:
        super().__init__(f"{reason.value}: {detail}")
        self.reason = reason
        self.detail = detail


# ---------------------------------------------------------------------------
# 2-D access forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessPattern:
    """A recognized 2-D access: storage order and leading dimension."""

    layout: str  # "RM" | "CM"
    lda: Union[int, str]


def _unit_term(expr) -> Optional[str]:
    """The iv of a bare single-iv subscript (coefficient 1, offset 0)."""
    if not isinstance(expr, AffineExpr):
        return None
    if len(expr.terms) == 1 and expr.offset == 0:
        iv, coeff = expr.terms[0]
        if coeff == 1:
            return iv
    return None


def match_array_access(index, iv_row: str, iv_col: str, extents: tuple) -> AccessPattern:
    """Recognize a 2-D access over ``(iv_row, iv_col)`` and infer its layout.

    Accepted forms: two subscripts ``[iv_row, iv_col]`` (row-major, leading
    dimension taken from the declared extents) or ``[iv_col, iv_row]``
    (column-major), and single flat subscripts ``iv_row*ld + iv_col``
    (row-major) or ``iv_col*ld + iv_row`` (column-major), where ``ld`` is an
    integer or a param name.

    Raises:
        MatchFailure: ``non-affine`` when the subscript leaves the affine
            fragment or doesn't range over exactly these two ivs;
            ``layout-unknown`` when it is affine over both ivs but neither
            storage order can be inferred (e.g. both coefficients non-unit,
            or a nonzero base offset).
    """
    for e in index:
        if isinstance(e, NonAffineExpr):
            raise MatchFailure(
                SkipReason.NON_AFFINE, f"non-affine subscript {e.text!r}"
            )
    if len(index) == 2 and len(extents) == 2:
        pair = (_unit_term(index[0]), _unit_term(index[1]))
        if pair == (iv_row, iv_col):
            return AccessPattern(layout="RM", lda=extents[1])
        if pair == (iv_col, iv_row):
            return AccessPattern(layout="CM", lda=extents[1])
    elif len(index) == 1 and index[0].offset == 0:
        coeffs = dict(index[0].terms)
        if set(coeffs) == {iv_row, iv_col}:
            if coeffs[iv_col] == 1:
                return AccessPattern(layout="RM", lda=coeffs[iv_row])
            if coeffs[iv_row] == 1:
                return AccessPattern(layout="CM", lda=coeffs[iv_col])

    ivs = set()
    for e in index:
        ivs.update(e.ivs())
    if ivs != {iv_row, iv_col}:
        raise MatchFailure(
            SkipReason.NON_AFFINE,
            f"matrix subscript ranges over {sorted(ivs)} instead of "
            f"({iv_row}, {iv_col})",
        )
    raise MatchFailure(
        SkipReason.LAYOUT_UNKNOWN,
        "affine over both loop variables but neither row-major "
        "(i*ld + k) nor column-major (k*ld + i) form applies",
    )


# ---------------------------------------------------------------------------
# Reduction and store
# ---------------------------------------------------------------------------


def _scaled(op: Operand, defs: dict, base: Callable[[Operand], bool]):
    """``c * t`` or ``t * c`` with a float literal ``c``, or bare ``t`` (c = 1).

    `base(t)` says whether ``t`` is the wanted term.  Returns ``(c, t, used)``
    with `used` the product's statement (empty when bare), or None.
    """
    d = defs.get(op)
    if isinstance(d, BinOp) and d.op == "mul":
        for c, t in ((d.a, d.b), (d.b, d.a)):
            if isinstance(c, float) and base(t):
                return c, t, [d]
    return (1.0, op, []) if base(op) else None


def _load_ivs(load: Load) -> set:
    ivs = set()
    for e in load.index:
        if isinstance(e, NonAffineExpr):
            raise MatchFailure(SkipReason.NON_AFFINE, f"non-affine subscript {e.text!r}")
        ivs.update(e.ivs())
    return ivs


def _vector_stride_check(load: Load, iv_col: str) -> None:
    """Require a unit-stride, offset-free 1-D access over the reduction iv."""
    if len(load.index) != 1:
        raise MatchFailure(
            SkipReason.NON_AFFINE, f"vector operand {load.buffer!r} uses 2-D subscripts"
        )
    e = load.index[0]
    if isinstance(e, NonAffineExpr):
        raise MatchFailure(SkipReason.NON_AFFINE, f"non-affine subscript {e.text!r}")
    coeffs = dict(e.terms)
    if set(coeffs) != {iv_col}:
        raise MatchFailure(
            SkipReason.NON_AFFINE,
            f"vector subscript ranges over {sorted(coeffs)} instead of {iv_col!r}",
        )
    if coeffs[iv_col] != 1 or e.offset != 0:
        raise MatchFailure(
            SkipReason.STRIDED,
            f"vector access {load.buffer}[{iv_col} * {coeffs[iv_col]} + {e.offset}] "
            f"is strided or offset; only unit stride is rewritten",
        )


def _match_reduction(outer: Loop, inner: Loop, defs: dict, extents_of: Callable):
    """The inner reduction: ``(acc, matrix_load, vector_load, access, alpha, used)``.

    Accepts an accumulator initialized to 0.0 in the outer body and updated
    once per inner iteration by an (optionally constant-scaled) product of a
    2-D load over (outer iv, inner iv) and a unit-stride 1-D load over the
    inner iv.
    """
    updates = [s for s in inner.body if isinstance(s, AccumUpdate)]
    if not updates:
        raise MatchFailure(
            SkipReason.NON_AFFINE, "inner loop has no multiply-add reduction"
        )
    if len(updates) > 1:
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT, "inner loop updates more than one accumulator"
        )
    update = updates[0]
    acc = update.name

    inits = [s for s in outer.body if isinstance(s, AccumInit) and s.name == acc]
    if len(inits) != 1 or inits[0].value != 0.0:
        raise MatchFailure(
            SkipReason.NON_AFFINE,
            f"accumulator {acc!r} is not initialized to 0.0 in the enclosing loop",
        )

    used = [update, inits[0]]
    loads: list[Load] = []
    alpha = 1.0
    for op in (update.a, update.b):
        hit = _scaled(op, defs, lambda t: isinstance(defs.get(t), Load))
        if hit is None:
            raise MatchFailure(
                SkipReason.NON_AFFINE,
                f"reduction factor {op!r} is not a (scaled) load",
            )
        scale, name, mul = hit
        loads.append(defs[name])
        alpha *= scale
        used += [defs[name]] + mul

    vec_load, mat_load = sorted(loads, key=lambda l: len(_load_ivs(l)))
    if _load_ivs(mat_load) != {outer.iv, inner.iv} or _load_ivs(vec_load) != {inner.iv}:
        raise MatchFailure(
            SkipReason.NON_AFFINE,
            "reduction factors are not a 2-D load over both loop variables "
            "times a 1-D load over the reduction variable",
        )
    _vector_stride_check(vec_load, inner.iv)
    access = match_array_access(
        mat_load.index, outer.iv, inner.iv, extents_of(mat_load.buffer)
    )
    return acc, mat_load, vec_load, access, alpha, used


def _match_store(outer: Loop, acc: str, defs: dict):
    """The stored result: ``(store, alpha, beta, used)``.

    Accepts ``y[i] = [alpha *] s`` or ``beta*y[i] + alpha*s``; missing scale
    factors default to alpha = 1 and beta = 0.
    """
    stores = [s for s in outer.body if isinstance(s, Store)]
    if not stores:
        raise MatchFailure(SkipReason.NON_AFFINE, "no store of the reduction result")
    if len(stores) > 1:
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT,
            f"{len(stores)} stores in the output loop; expected exactly one",
        )
    store = stores[0]

    if len(store.index) != 1:
        raise MatchFailure(
            SkipReason.NON_AFFINE, f"output store into {store.buffer!r} uses 2-D subscripts"
        )
    e = store.index[0]
    if isinstance(e, NonAffineExpr):
        raise MatchFailure(SkipReason.NON_AFFINE, f"non-affine subscript {e.text!r}")
    if _unit_term(e) != outer.iv:
        if set(dict(e.terms)) == {outer.iv}:
            raise MatchFailure(
                SkipReason.STRIDED,
                f"output access {store.buffer}[...] is strided or offset; "
                f"only unit stride is rewritten",
            )
        raise MatchFailure(
            SkipReason.NON_AFFINE,
            f"output subscript does not range over the output loop variable {outer.iv!r}",
        )

    def is_acc(t) -> bool:
        return t == acc

    def is_previous_output(t) -> bool:
        d = defs.get(t)
        return (
            isinstance(d, Load)
            and d.buffer == store.buffer
            and len(d.index) == 1
            and _unit_term(d.index[0]) == outer.iv
        )

    hit = _scaled(store.value, defs, is_acc)
    if hit is not None:
        return store, hit[0], 0.0, [store] + hit[2]
    d = defs.get(store.value)
    if isinstance(d, BinOp) and d.op == "add":
        for prev_op, sum_op in ((d.a, d.b), (d.b, d.a)):
            prev = _scaled(prev_op, defs, is_previous_output)
            total = None if prev is None else _scaled(sum_op, defs, is_acc)
            if total is not None:
                used = [store, d, defs[prev[1]]] + prev[2] + total[2]
                return store, total[0], prev[0], used
    raise MatchFailure(
        SkipReason.NON_AFFINE,
        f"stored value {store.value!r} is not a scaled accumulator or "
        f"an accumulate-into-output form",
    )


# ---------------------------------------------------------------------------
# Whole-nest matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GemvCandidate:
    """A structurally matched GEMV nest, ready for legality checks."""

    function: str
    matrix: str
    vector: str
    output: str
    m: int
    n: int
    lda: Union[int, str]
    layout: str
    alpha: float
    beta: float

    def params_dict(self) -> dict:
        return {
            "matrix": self.matrix,
            "vector": self.vector,
            "output": self.output,
            "layout": self.layout,
            "m": self.m,
            "n": self.n,
            "lda": self.lda,
            "alpha": self.alpha,
            "beta": self.beta,
        }


def _const_trip_count(loop: Loop) -> int:
    lo, hi = loop.lower, loop.upper
    if not (isinstance(lo, AffineExpr) and isinstance(hi, AffineExpr)):
        raise MatchFailure(SkipReason.NON_AFFINE, f"loop {loop.iv!r} bounds are not affine")
    if not (lo.is_const and hi.is_const):
        raise MatchFailure(
            SkipReason.SYMBOLIC_TRIP_COUNT, f"loop {loop.iv!r} bounds are not integer constants"
        )
    if lo.offset != 0:
        raise MatchFailure(
            SkipReason.NON_AFFINE, f"loop {loop.iv!r} is not zero-based"
        )
    if hi.offset < 1:
        raise MatchFailure(SkipReason.NON_AFFINE, f"loop {loop.iv!r} is zero-trip")
    return hi.offset


def match_nest(function_name: str, nest: Loop, extents_of: Callable[[str], tuple]) -> GemvCandidate:
    """Match one top-level loop nest against the GEMV idiom.

    Raises:
        MatchFailure: with the skip reason when the nest does not fit.
    """
    inner_loops = [s for s in nest.body if isinstance(s, Loop)]
    if not inner_loops:
        raise MatchFailure(
            SkipReason.NOT_DEEP_ENOUGH, "loop nest is only one level deep"
        )
    if len(inner_loops) > 1:
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT, "multiple inner loops in one nest"
        )
    inner = inner_loops[0]
    if any(isinstance(s, Loop) for s in inner.body):
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT,
            "nesting deeper than two loops is not a GEMV idiom",
        )

    m = _const_trip_count(nest)
    n = _const_trip_count(inner)

    stmts = [s for s in nest.body if s is not inner] + list(inner.body)
    defs: dict = {}
    for s in stmts:
        if isinstance(s, (Load, BinOp)):
            defs.setdefault(s.dest, s)

    acc, mat_load, vec_load, access, red_alpha, red_used = _match_reduction(
        nest, inner, defs, extents_of
    )
    store, store_alpha, beta, store_used = _match_store(nest, acc, defs)

    used = {id(s) for s in red_used + store_used}
    leftovers = [s for s in stmts if id(s) not in used]
    if leftovers:
        kinds = ", ".join(type(s).__name__ for s in leftovers[:4])
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT,
            f"{len(leftovers)} statement(s) in the nest take no part in the "
            f"GEMV ({kinds})",
        )

    return GemvCandidate(
        function=function_name,
        matrix=mat_load.buffer,
        vector=vec_load.buffer,
        output=store.buffer,
        m=m,
        n=n,
        lda=access.lda,
        layout=access.layout,
        alpha=red_alpha * store_alpha,
        beta=beta,
    )
