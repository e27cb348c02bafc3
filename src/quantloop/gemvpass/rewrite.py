"""Driver for the GEMV idiom pass: one scan that replaces each legal nest.

The pass visits every top-level loop of every function once.  A nest is
replaced in place by its ``gemv`` intrinsic call when it matches the idiom
(:func:`match_nest`, which accounts for every statement in the nest), passes
:func:`check_legality`, and defines no scalar that is read outside it.  Any
other nest keeps its position and its object, so it prints byte-identically,
and gets a record with one of six reason codes.  Nothing outside the
replaced nests is touched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from ..loopir.nodes import (
    AccumInit,
    AccumUpdate,
    BinOp,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    Store,
    walk,
)
from .matchers import GemvCandidate, MatchFailure, SkipReason, match_nest

__all__ = [
    "NestRecord",
    "PassResult",
    "check_legality",
    "run_gemv_pass",
]


@dataclass(frozen=True)
class NestRecord:
    """Outcome for one scanned top-level loop nest."""

    function: str
    position: int  # index of the nest within the function body
    iv: str
    status: str  # "matched" | "skipped"
    reason: Optional[str] = None  # skip reason code, None when matched
    detail: str = ""
    params: Optional[dict] = None  # gemv parameters when matched

    def to_json(self) -> dict:
        out = {
            "function": self.function,
            "position": self.position,
            "iv": self.iv,
            "status": self.status,
        }
        if self.status == "skipped":
            out["reason"] = self.reason
            out["detail"] = self.detail
        else:
            out["params"] = dict(self.params or {})
        return out


@dataclass
class PassResult:
    program: LoopProgram
    records: list
    candidates: list

    @property
    def matched(self) -> list:
        return [r for r in self.records if r.status == "matched"]

    @property
    def skipped(self) -> list:
        return [r for r in self.records if r.status == "skipped"]

    def report(self) -> dict:
        """JSON-serializable per-nest report."""
        return {
            "nests_scanned": len(self.records),
            "matched": len(self.matched),
            "skipped": len(self.skipped),
            "records": [r.to_json() for r in self.records],
        }


def check_legality(candidate: GemvCandidate, program: LoopProgram) -> None:
    """Validate a structural match against the whole program.

    Checks: the three operands are distinct buffers (aliasing would let the
    store interfere with the loads), the loop extents fit the declared
    buffer shapes, and an integer leading dimension covers the reduction
    width.

    Raises:
        MatchFailure: ``extra-side-effect`` for aliased operands,
            ``layout-unknown`` for the rest.
    """
    names = (candidate.matrix, candidate.vector, candidate.output)
    if len(set(names)) != len(names):
        raise MatchFailure(
            SkipReason.EXTRA_SIDE_EFFECT,
            f"operands alias: matrix={candidate.matrix!r} "
            f"vector={candidate.vector!r} output={candidate.output!r}",
        )

    decls = {b.name: b for b in program.buffers}
    for name in names:
        if name not in decls:
            raise MatchFailure(
                SkipReason.LAYOUT_UNKNOWN, f"buffer {name!r} is not declared"
            )

    if isinstance(candidate.lda, int):
        min_ld = candidate.n if candidate.layout == "RM" else candidate.m
        if candidate.lda < min_ld:
            raise MatchFailure(
                SkipReason.LAYOUT_UNKNOWN,
                f"leading dimension {candidate.lda} < {min_ld}",
            )
        rows = candidate.m if candidate.layout == "RM" else candidate.n
        if candidate.lda * rows > decls[candidate.matrix].size:
            raise MatchFailure(
                SkipReason.LAYOUT_UNKNOWN,
                f"access footprint {candidate.lda * rows} exceeds buffer "
                f"{candidate.matrix!r} size {decls[candidate.matrix].size}",
            )

    if decls[candidate.vector].size < candidate.n:
        raise MatchFailure(
            SkipReason.LAYOUT_UNKNOWN,
            f"vector {candidate.vector!r} shorter than the reduction width",
        )
    if decls[candidate.output].size < candidate.m:
        raise MatchFailure(
            SkipReason.LAYOUT_UNKNOWN,
            f"output {candidate.output!r} shorter than the output height",
        )


def _scalar_reads(stmts) -> Counter:
    """How many statements under `stmts` read each scalar name."""
    reads: Counter = Counter()
    for s in walk(stmts):
        if isinstance(s, Store):
            reads[s.value] += 1
        elif isinstance(s, BinOp):
            reads.update((s.a, s.b, s.c))
        elif isinstance(s, AccumUpdate):
            reads.update((s.name, s.a, s.b))
    return reads


def _check_scalars_stay_inside(nest: Loop, reads: Counter) -> None:
    """Refuse a nest whose scalars are read outside it (`reads`: whole body).

    The ``gemv`` call defines none of the nest's scalars, so replacing the
    nest would leave such a read without its value.
    """
    inside = _scalar_reads(nest)
    for s in walk(nest):
        if isinstance(s, Loop):
            name = s.iv
        elif isinstance(s, (Load, BinOp)):
            name = s.dest
        elif isinstance(s, AccumInit):
            name = s.name
        else:
            continue
        if reads[name] > inside[name]:
            raise MatchFailure(
                SkipReason.EXTRA_SIDE_EFFECT,
                f"scalar {name!r} defined in the nest is read outside it",
            )


def _gemv_call(c: GemvCandidate) -> IntrinsicCall:
    return IntrinsicCall(
        name="gemv",
        args=(
            c.layout,
            "NT",
            c.m,
            c.n,
            c.alpha,
            c.matrix,
            c.lda,
            c.vector,
            1,
            c.beta,
            c.output,
            1,
        ),
    )


def run_gemv_pass(program: LoopProgram) -> PassResult:
    """Replace every legal GEMV nest with its call; returns the new program + report.

    Each top-level loop gets exactly one record.  A nest that fails
    matching, legality or the scalar-escape check is recorded with its
    reason and left as it was.
    """
    extents = {b.name: b.extents for b in program.buffers}
    extents_of = lambda name: extents.get(name, ())
    records: list = []
    candidates: list = []
    functions: list = []
    for fn in program.functions:
        reads = _scalar_reads(fn.body)
        body = list(fn.body)
        for pos, stmt in enumerate(fn.body):
            if not isinstance(stmt, Loop):
                continue
            try:
                cand = match_nest(fn.name, stmt, extents_of)
                check_legality(cand, program)
                _check_scalars_stay_inside(stmt, reads)
            except MatchFailure as fail:
                records.append(
                    NestRecord(
                        function=fn.name,
                        position=pos,
                        iv=stmt.iv,
                        status="skipped",
                        reason=fail.reason.value,
                        detail=fail.detail,
                    )
                )
                continue
            candidates.append(cand)
            records.append(
                NestRecord(
                    function=fn.name,
                    position=pos,
                    iv=stmt.iv,
                    status="matched",
                    params=cand.params_dict(),
                )
            )
            body[pos] = _gemv_call(cand)
        functions.append(replace(fn, body=tuple(body)))
    return PassResult(
        program=replace(program, functions=tuple(functions)),
        records=records,
        candidates=candidates,
    )
