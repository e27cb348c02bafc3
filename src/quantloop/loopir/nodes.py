"""Loop IR node types.

Programs are trees of frozen dataclasses: buffer/param declarations plus
functions whose bodies are counted loops, scalar loads/stores over float32
buffers, scalar arithmetic, an explicit accumulator pair (init / update),
and opaque intrinsic calls.  Array subscripts and loop bounds are affine
expressions over enclosing induction variables and declared parameters;
coefficients are integer constants or named parameters (used for symbolic
leading dimensions).
Programs are immutable after construction — transformation passes build new
trees.

:class:`NonAffineExpr` exists so analyses can be exercised against indices
the textual grammar refuses to parse (for example a product of two
induction variables); the interpreter rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "AffineExpr",
    "AccumInit",
    "AccumUpdate",
    "BinOp",
    "BufferDecl",
    "Function",
    "IntrinsicCall",
    "Load",
    "Loop",
    "LoopProgram",
    "NonAffineExpr",
    "IndexExpr",
    "Operand",
    "Stmt",
    "walk",
]

# Scalar operands are names of previously defined scalars or float literals.
Operand = Union[str, float]
# Intrinsic arguments may also be integer literals or bare identifiers that
# the intrinsic itself interprets (e.g. the layout tokens of a gemv call).
CallArg = Union[str, int, float]


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeff * iv) + offset`` with each iv appearing at most once.

    A coefficient is an ``int`` or the name of a program parameter.
    """

    terms: tuple[tuple[str, Union[int, str]], ...] = ()
    offset: int = 0

    def __post_init__(self) -> None:
        ivs = [iv for iv, _ in self.terms]
        if len(set(ivs)) != len(ivs):
            raise ValueError(f"induction variable repeated in affine expression: {ivs}")

    @property
    def is_const(self) -> bool:
        return not self.terms

    def ivs(self) -> tuple[str, ...]:
        return tuple(iv for iv, _ in self.terms)

    @staticmethod
    def const(value: int) -> "AffineExpr":
        return AffineExpr(terms=(), offset=value)

    @staticmethod
    def of(iv: str, coeff: Union[int, str] = 1, offset: int = 0) -> "AffineExpr":
        return AffineExpr(terms=((iv, coeff),), offset=offset)


@dataclass(frozen=True)
class NonAffineExpr:
    """An index expression outside the affine fragment (kept only as text)."""

    text: str


IndexExpr = Union[AffineExpr, NonAffineExpr]


@dataclass(frozen=True)
class BufferDecl:
    """A named float32 array with 1 or 2 declared extents.

    ``quantized`` marks operand metadata only: the loop nests that read the
    buffer are written against its logical dense values either way.
    """

    name: str
    extents: tuple[int, ...]
    quantized: bool = False

    def __post_init__(self) -> None:
        if not 1 <= len(self.extents) <= 2:
            raise ValueError(f"buffer {self.name} must have 1 or 2 extents")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"buffer {self.name} extents must be positive")

    @property
    def size(self) -> int:
        total = 1
        for e in self.extents:
            total *= e
        return total


@dataclass(frozen=True)
class Loop:
    """Counted loop over ``[lower, upper)``; zero-trip when upper <= lower."""

    iv: str
    lower: AffineExpr
    upper: AffineExpr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Load:
    """``dest = buffer[index...]`` (1 or 2 subscripts)."""

    dest: str
    buffer: str
    index: tuple[IndexExpr, ...]


@dataclass(frozen=True)
class Store:
    """``buffer[index...] = value``."""

    buffer: str
    index: tuple[IndexExpr, ...]
    value: Operand


@dataclass(frozen=True)
class BinOp:
    """``dest = a op b`` for op in {mul, add}, or ``dest = a*b + c`` (fma)."""

    dest: str
    op: str
    a: Operand
    b: Operand
    c: Operand | None = None

    def __post_init__(self) -> None:
        if self.op not in ("mul", "add", "fma"):
            raise ValueError(f"unknown scalar op {self.op!r}")
        if (self.op == "fma") != (self.c is not None):
            raise ValueError("fma takes exactly three operands; mul/add take two")


@dataclass(frozen=True)
class AccumInit:
    """Declare accumulator `name` with a literal starting value."""

    name: str
    value: float


@dataclass(frozen=True)
class AccumUpdate:
    """``name += a * b`` — the reduction step of an accumulator."""

    name: str
    a: Operand
    b: Operand


@dataclass(frozen=True)
class IntrinsicCall:
    """Opaque call; arguments are identifiers, ints, or float literals."""

    name: str
    args: tuple[CallArg, ...]


Stmt = Union[Loop, Load, Store, BinOp, AccumInit, AccumUpdate, IntrinsicCall]


@dataclass(frozen=True)
class Function:
    name: str
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class LoopProgram:
    buffers: tuple[BufferDecl, ...] = ()
    params: tuple[str, ...] = ()
    functions: tuple[Function, ...] = ()

    def buffer(self, name: str) -> BufferDecl:
        for decl in self.buffers:
            if decl.name == name:
                return decl
        raise KeyError(f"no buffer named {name!r}")

    def function(self, name: str | None = None) -> Function:
        if name is None:
            if len(self.functions) != 1:
                raise ValueError("program has multiple functions; name one explicitly")
            return self.functions[0]
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")


def walk(stmts) -> "list[Stmt]":
    """All statements under `stmts` (an iterable or a single node), preorder."""
    if not isinstance(stmts, (list, tuple)):
        stmts = (stmts,)
    out: list[Stmt] = []
    stack = list(reversed(stmts))
    while stack:
        s = stack.pop()
        out.append(s)
        if isinstance(s, Loop):
            stack.extend(reversed(s.body))
    return out
