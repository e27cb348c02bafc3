"""Reference interpreter for loop programs.

``interpret(p, env)`` executes a function over an environment that binds
buffer names to float32 numpy arrays (or quantized matrices), and param
names to ints.  Buffers are updated in place and the same mapping is
returned.  Every array subscript is bounds-checked; an out-of-range access
raises :class:`TrapError` naming the buffer and the offending index.

For speed the program is compiled into nested Python closures bound to one
environment (:class:`Prepared`).  Binding validates each buffer the function
references once; the closures hold the bound arrays, so a repeated run only
reads the params from the environment.  A run sees in-place writes made to
a bound array since the last run, but not a name rebound to a new object:
that needs a fresh :class:`Prepared`.  Scalar arithmetic runs in Python
floats (double precision) and every store rounds to float32, so loop-nest
results match a float32 kernel up to summation rounding while staying
exactly reproducible.  An elementwise depth-1 loop (two loads, one add or
mul, one store, all at the bare loop index) runs as one numpy operation,
which gives the same float32 results and leaves the same scalars behind;
any other loop, and any loop whose range leaves a buffer, runs element by
element, so a trap fires at the same index.

Intrinsic calls dispatch through a registry mapping the intrinsic name to a
Python handler; the default registry lives in :mod:`quantloop.intrinsics`.
Buffer arguments are resolved when the program is bound, so each call
passes the bound environment values.  A ``gemv`` call is bound whole: its
params are built and its operands checked once, into the
:class:`~quantloop.intrinsics.GemvCall` the handler receives (on every call
instead when some argument is a param).  Over a quantized buffer the call
holds the :class:`QuantizedMatrix` itself, so the handler can pick the
codes-domain kernel.  A caller may pass its own ``bind_gemv`` that binds
more per site, such as the engine's float-shadow call.
Loads from a quantized buffer in an ordinary loop nest see its dense
reconstruction, built once at bind and read-only.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping

import numpy as np

from ..intrinsics import bind_gemv, default_registry
from ..quantizer import QuantizedMatrix, dequantize
from .nodes import (
    AccumInit,
    AccumUpdate,
    AffineExpr,
    BinOp,
    BufferDecl,
    IntrinsicCall,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    Operand,
    Stmt,
    Store,
)

__all__ = ["Prepared", "TrapError", "interpret"]


#: Elementwise binary ops that a depth-1 loop may run as one numpy call.
_UFUNCS = {"add": (np.add, operator.add), "mul": (np.multiply, operator.mul)}


def _pack(*args) -> tuple:
    return args


class TrapError(RuntimeError):
    """Out-of-bounds buffer access, reported with buffer name and index."""

    def __init__(self, buffer: str, index: tuple, extents: tuple) -> None:
        super().__init__(
            f"out-of-bounds access to buffer {buffer!r} at index "
            f"{tuple(index)} (extents {tuple(extents)})"
        )
        self.buffer = buffer
        self.index = tuple(index)
        self.extents = tuple(extents)


class Prepared:
    """A program compiled to closures over one bound environment.

    Building it validates every buffer the function references against its
    declaration, binds each ``gemv`` call whose arguments are all literals
    or buffers, and compiles each elementwise depth-1 loop to one numpy
    operation, all once; :meth:`run` then only reads the params from `env`.
    `bind_gemv` builds each gemv site's call from its BLAS-shaped arguments.
    """

    def __init__(
        self,
        program: LoopProgram,
        env: dict,
        function: str | None = None,
        intrinsics: Mapping[str, Callable] | None = None,
        bind_gemv: Callable = bind_gemv,
    ) -> None:
        if intrinsics is None:
            intrinsics = default_registry()
        self.program = program
        self.function = program.function(function)
        self.env = env
        self._intrinsics = dict(intrinsics)
        self._bind_gemv = bind_gemv
        self._params = tuple(program.params)
        self._buffer_names = {d.name for d in program.buffers}
        self._bound: dict[str, object] = {}
        self._flat: dict[str, np.ndarray] = {}
        self._body = [self._compile_stmt(s) for s in self.function.body]

    # -- binding -----------------------------------------------------------

    def _bind(self, name: str):
        """The value bound to buffer `name`, checked against its declaration."""
        if name in self._bound:
            return self._bound[name]
        if name not in self.env:
            raise ValueError(f"buffer {name!r} is not bound in the environment")
        extents = tuple(self.program.buffer(name).extents)
        value = self.env[name]
        if isinstance(value, QuantizedMatrix):
            shape = (value.rows, value.cols)
        else:
            value = np.asarray(value)
            if value.dtype != np.float32:
                raise ValueError(f"buffer {name!r} must be float32, got {value.dtype}")
            if not value.flags.c_contiguous:
                raise ValueError(f"buffer {name!r} must be C-contiguous")
            shape = tuple(value.shape)
        if shape != extents:
            raise ValueError(
                f"buffer {name!r} declared {extents} but bound value has shape {shape}"
            )
        self._bound[name] = value
        return value

    def _flat_view(self, name: str) -> np.ndarray:
        """Flat float32 storage of buffer `name` for loads and stores.

        A quantized matrix is reconstructed here, once, into a read-only
        array: the matrix is immutable, so the reconstruction never changes.
        """
        if name not in self._flat:
            value = self._bind(name)
            if isinstance(value, QuantizedMatrix):
                flat = dequantize(value).reshape(-1)
                flat.flags.writeable = False
            else:
                flat = value.reshape(-1)
            self._flat[name] = flat
        return self._flat[name]

    # -- compilation -------------------------------------------------------

    def _compile_affine(self, expr) -> Callable[[dict], int]:
        if isinstance(expr, NonAffineExpr):
            raise ValueError(
                f"non-affine subscript {expr.text!r} cannot be interpreted"
            )
        assert isinstance(expr, AffineExpr)
        off = expr.offset
        terms = expr.terms
        if not terms:
            return lambda frame: off
        if len(terms) == 1:
            iv, coeff = terms[0]
            if isinstance(coeff, int):
                if coeff == 1 and off == 0:
                    return lambda frame: frame[iv]
                return lambda frame: frame[iv] * coeff + off
            return lambda frame: frame[iv] * frame[coeff] + off

        def many(frame: dict) -> int:
            total = off
            for iv, coeff in terms:
                c = coeff if isinstance(coeff, int) else frame[coeff]
                total += frame[iv] * c
            return total

        return many

    def _compile_address(self, decl: BufferDecl, index) -> Callable[[dict], int]:
        name = decl.name
        if len(index) == 2:
            if len(decl.extents) != 2:
                raise ValueError(
                    f"buffer {name!r} declared with {len(decl.extents)} extents "
                    f"but accessed with 2 subscripts"
                )
            f0 = self._compile_affine(index[0])
            f1 = self._compile_affine(index[1])
            e0, e1 = decl.extents

            def addr2(frame: dict) -> int:
                i0 = f0(frame)
                i1 = f1(frame)
                if 0 <= i0 < e0 and 0 <= i1 < e1:
                    return i0 * e1 + i1
                raise TrapError(name, (i0, i1), (e0, e1))

            return addr2

        f0 = self._compile_affine(index[0])
        size = decl.size

        def addr1(frame: dict) -> int:
            i0 = f0(frame)
            if 0 <= i0 < size:
                return i0
            raise TrapError(name, (i0,), (size,))

        return addr1

    def _compile_operand(self, op: Operand) -> Callable[[dict], float]:
        if isinstance(op, str):
            return lambda frame: frame[op]
        value = float(op)
        return lambda frame: value

    def _compile_stmt(self, s: Stmt) -> Callable:
        if isinstance(s, Loop):
            return self._compile_loop(s)
        if isinstance(s, Load):
            item = self._flat_view(s.buffer).item
            addr = self._compile_address(self.program.buffer(s.buffer), s.index)
            dest = s.dest

            def run_load(frame):
                frame[dest] = item(addr(frame))

            return run_load
        if isinstance(s, Store):
            flat = self._flat_view(s.buffer)
            addr = self._compile_address(self.program.buffer(s.buffer), s.index)
            val = self._compile_operand(s.value)

            def run_store(frame):
                flat[addr(frame)] = val(frame)

            return run_store
        if isinstance(s, BinOp):
            a = self._compile_operand(s.a)
            b = self._compile_operand(s.b)
            dest = s.dest
            if s.op == "mul":

                def run_mul(frame):
                    frame[dest] = a(frame) * b(frame)

                return run_mul
            if s.op == "add":

                def run_add(frame):
                    frame[dest] = a(frame) + b(frame)

                return run_add
            c = self._compile_operand(s.c)

            def run_fma(frame):
                frame[dest] = a(frame) * b(frame) + c(frame)

            return run_fma
        if isinstance(s, AccumInit):
            name = s.name
            value = float(s.value)

            def run_init(frame):
                frame[name] = value

            return run_init
        if isinstance(s, AccumUpdate):
            name = s.name
            a = self._compile_operand(s.a)
            b = self._compile_operand(s.b)

            def run_update(frame):
                frame[name] = frame[name] + a(frame) * b(frame)

            return run_update
        if isinstance(s, IntrinsicCall):
            return self._compile_call(s)
        raise TypeError(f"cannot compile statement of type {type(s).__name__}")

    def _compile_elementwise(self, s: Loop) -> Callable | None:
        """One ufunc call for an elementwise loop, or None to run it scalar.

        The loop must be exactly ``for d in lo..hi { load a = L[d]; load b =
        R[d]; let r = a op b; store O[d] = r }`` with op add or mul, constant
        bounds inside every buffer, a bare ``d`` as every subscript and a
        writeable output (not a quantized reconstruction).  O may be L or R:
        each element is read before it is written either way.  A float32 sum
        or product taken in double and rounded to float32 equals the float32
        operation (double rounding is innocuous for + and x when the wide
        format has at least 2p+2 bits: 53 >= 2*24+2, Figueroa 1995), so the
        result is bit-identical to the scalar loop.  Afterwards the frame
        holds what the scalar loop leaves: ``d = hi-1`` and the last
        iteration's ``a``, ``b`` and ``r``.
        """
        if len(s.body) != 4 or not all(
            isinstance(e, AffineExpr) and e.is_const for e in (s.lower, s.upper)
        ):
            return None
        load_l, load_r, binop, store = s.body
        if not (
            isinstance(load_l, Load)
            and isinstance(load_r, Load)
            and isinstance(binop, BinOp)
            and isinstance(store, Store)
        ):
            return None
        d, a, b, r = s.iv, load_l.dest, load_r.dest, binop.dest
        lo, hi = s.lower.offset, s.upper.offset
        if (
            binop.op not in _UFUNCS
            or (binop.a, binop.b, store.value) != (a, b, r)
            or len({d, a, b, r}) != 4
            or not load_l.index == load_r.index == store.index == (AffineExpr.of(d),)
        ):
            return None
        left, right, out = (self._flat_view(x.buffer) for x in (load_l, load_r, store))
        # Bounds inside every buffer, and either the same storage or none
        # shared: a partial overlap would let the scalar loop read its own
        # earlier stores.
        if (
            not 0 <= lo < hi <= min(left.size, right.size, out.size)
            or not out.flags.writeable
            or any(v is not out and np.may_share_memory(v, out) for v in (left, right))
        ):
            return None
        ufunc, scalar_op = _UFUNCS[binop.op]
        left_item, right_item = left.item, right.item
        left, right, out = left[lo:hi], right[lo:hi], out[lo:hi]
        last = hi - 1

        def run_elementwise(frame):
            last_a = left_item(last)  # read before the op: O may be L or R
            last_b = right_item(last)
            ufunc(left, right, out=out)
            frame[d] = last
            frame[a] = last_a
            frame[b] = last_b
            frame[r] = scalar_op(last_a, last_b)

        return run_elementwise

    def _compile_loop(self, s: Loop) -> Callable:
        elementwise = self._compile_elementwise(s)
        if elementwise is not None:
            return elementwise
        body = [self._compile_stmt(b) for b in s.body]
        iv = s.iv
        lower, upper = s.lower, s.upper
        const_range = None
        if isinstance(lower, AffineExpr) and isinstance(upper, AffineExpr):
            if lower.is_const and upper.is_const:
                const_range = range(lower.offset, upper.offset)
        lo_f = self._compile_affine(lower)
        hi_f = self._compile_affine(upper)

        if len(body) == 3 and const_range is not None:
            rng, (b0, b1, b2) = const_range, body

            def run_loop3(frame):
                for v in rng:
                    frame[iv] = v
                    b0(frame)
                    b1(frame)
                    b2(frame)

            return run_loop3

        if const_range is not None:
            rng = const_range

            def run_loop_const(frame):
                for v in rng:
                    frame[iv] = v
                    for fn in body:
                        fn(frame)

            return run_loop_const

        def run_loop(frame):
            for v in range(lo_f(frame), hi_f(frame)):
                frame[iv] = v
                for fn in body:
                    fn(frame)

        return run_loop

    def _compile_call(self, s: IntrinsicCall) -> Callable:
        try:
            handler = self._intrinsics[s.name]
        except KeyError:
            raise ValueError(f"no handler registered for intrinsic {s.name!r}") from None
        args = list(s.args)
        from_frame = []
        for pos, arg in enumerate(s.args):
            if not isinstance(arg, str) or (s.name == "gemv" and pos < 2):
                continue  # a literal; gemv's first two are storage-mode tokens
            if arg in self._buffer_names:
                args[pos] = self._bind(arg)
            elif arg in self._params:
                from_frame.append((pos, arg))
        # A gemv handler takes one GemvCall, bound here when every argument
        # is known, or on each call when some are params.
        pack = (lambda *a: (self._bind_gemv(*a),)) if s.name == "gemv" else _pack

        if not from_frame:
            packed = pack(*args)

            def run_call(frame):
                handler(*packed)

            return run_call

        def run_call_params(frame):
            call_args = args.copy()
            for pos, name in from_frame:
                call_args[pos] = frame[name]
            handler(*pack(*call_args))

        return run_call_params

    # -- execution ----------------------------------------------------------

    def run(self) -> dict:
        """Execute over the bound environment, mutating its buffers in place."""
        env = self.env
        frame: dict = {}
        for param in self._params:
            if param not in env:
                raise ValueError(f"param {param!r} is not bound in the environment")
            frame[param] = int(env[param])
        for fn in self._body:
            fn(frame)
        return env


def interpret(
    program: LoopProgram,
    env: dict,
    function: str | None = None,
    intrinsics: Mapping[str, Callable] | None = None,
) -> dict:
    """Execute `program` over `env`; see the module docstring for semantics."""
    return Prepared(program, env, function=function, intrinsics=intrinsics).run()
