"""Structural validation of loop programs.

``validate`` returns a list of human-readable diagnostics (empty when the
program is well formed).  Checked invariants:

* buffer and param names are unique and don't collide;
* every load/store targets a declared buffer with the right subscript count;
* scalar names (induction variables, load/let destinations, accumulators)
  are defined exactly once per function and before use;
* accumulator updates sit inside a loop and refer to exactly one ``acc``
  definition in an enclosing scope;
* affine expression terms name enclosing induction variables or declared
  params, and symbolic coefficients are declared params;
* intrinsic calls name a known intrinsic and pass declared identifiers
  (the two leading mode tokens of ``gemv`` are exempt).

In-memory programs may carry :class:`NonAffineExpr` subscripts (the textual
parser refuses them); validation reports them only where a declared-name
check would otherwise apply, so analyses can still run and skip them.
"""

from __future__ import annotations

from ..intrinsics import default_registry
from .nodes import (
    AccumInit,
    AccumUpdate,
    AffineExpr,
    BinOp,
    Function,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    Store,
)

__all__ = ["KNOWN_INTRINSICS", "validate"]

KNOWN_INTRINSICS = frozenset(default_registry())

# gemv's two leading arguments are storage-mode tokens, not buffer names.
_GEMV_MODE_ARGS = 2


def validate(p: LoopProgram) -> list[str]:
    diags: list[str] = []
    buffer_names = set()
    for decl in p.buffers:
        if decl.name in buffer_names:
            diags.append(f"duplicate buffer {decl.name!r}")
        buffer_names.add(decl.name)
    param_names = set()
    for name in p.params:
        if name in param_names:
            diags.append(f"duplicate param {name!r}")
        if name in buffer_names:
            diags.append(f"param {name!r} collides with a buffer name")
        param_names.add(name)

    fn_names = set()
    for fn in p.functions:
        if fn.name in fn_names:
            diags.append(f"duplicate function {fn.name!r}")
        fn_names.add(fn.name)
        _validate_function(p, fn, buffer_names, param_names, diags)
    return diags


def _validate_function(p, fn: Function, buffers, params, diags: list[str]) -> None:
    defined: dict[str, str] = {}  # scalar name -> defining construct
    where = f"func {fn.name}"

    def define(name: str, kind: str) -> None:
        if name in defined:
            diags.append(
                f"{where}: scalar {name!r} defined more than once "
                f"({defined[name]} then {kind})"
            )
        elif name in buffers or name in params:
            diags.append(f"{where}: scalar {name!r} shadows a buffer or param")
        else:
            defined[name] = kind

    def check_operand(op, context: str) -> None:
        if isinstance(op, str) and op not in defined:
            diags.append(f"{where}: {context} uses undefined scalar {op!r}")

    def check_expr(expr, ivs: tuple[str, ...], context: str) -> None:
        if isinstance(expr, NonAffineExpr):
            return
        assert isinstance(expr, AffineExpr)
        for iv, coeff in expr.terms:
            if iv not in ivs and iv not in params:
                diags.append(
                    f"{where}: {context} references {iv!r}, which is neither an "
                    f"enclosing induction variable nor a declared param"
                )
            if isinstance(coeff, str) and coeff not in params:
                diags.append(
                    f"{where}: {context} uses undeclared param coefficient {coeff!r}"
                )

    def check_access(buf: str, index, ivs, context: str) -> None:
        if buf not in buffers:
            diags.append(f"{where}: {context} references undeclared buffer {buf!r}")
            return
        decl = p.buffer(buf)
        if len(index) not in (1, len(decl.extents)):
            diags.append(
                f"{where}: {context} on {buf!r} has {len(index)} subscripts for "
                f"{len(decl.extents)} declared extents"
            )
        for e in index:
            check_expr(e, ivs, context)

    def visit(stmts, ivs: tuple[str, ...], depth: int) -> None:
        for s in stmts:
            if isinstance(s, Loop):
                define(s.iv, "loop")
                check_expr(s.lower, ivs, f"lower bound of loop {s.iv!r}")
                check_expr(s.upper, ivs, f"upper bound of loop {s.iv!r}")
                visit(s.body, ivs + (s.iv,), depth + 1)
            elif isinstance(s, Load):
                check_access(s.buffer, s.index, ivs, f"load into {s.dest!r}")
                define(s.dest, "load")
            elif isinstance(s, Store):
                check_access(s.buffer, s.index, ivs, f"store to {s.buffer!r}")
                check_operand(s.value, f"store to {s.buffer!r}")
            elif isinstance(s, BinOp):
                check_operand(s.a, f"let {s.dest!r}")
                check_operand(s.b, f"let {s.dest!r}")
                if s.c is not None:
                    check_operand(s.c, f"let {s.dest!r}")
                define(s.dest, "let")
            elif isinstance(s, AccumInit):
                define(s.name, "acc")
            elif isinstance(s, AccumUpdate):
                if depth == 0:
                    diags.append(f"{where}: update of {s.name!r} outside any loop")
                if defined.get(s.name) != "acc":
                    diags.append(
                        f"{where}: update of {s.name!r} does not refer to an "
                        f"accumulator defined with 'acc'"
                    )
                check_operand(s.a, f"update {s.name!r}")
                check_operand(s.b, f"update {s.name!r}")
            elif isinstance(s, IntrinsicCall):
                if s.name not in KNOWN_INTRINSICS:
                    diags.append(f"{where}: unknown intrinsic {s.name!r}")
                for pos, arg in enumerate(s.args):
                    if not isinstance(arg, str):
                        continue
                    if s.name == "gemv" and pos < _GEMV_MODE_ARGS:
                        continue
                    if arg not in buffers and arg not in params:
                        diags.append(
                            f"{where}: call {s.name} argument {arg!r} is not a "
                            f"declared buffer or param"
                        )
            else:  # pragma: no cover - exhaustive over Stmt
                diags.append(f"{where}: unknown statement type {type(s).__name__}")

    visit(fn.body, (), 0)
