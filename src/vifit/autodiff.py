"""Reverse-mode automatic differentiation over flat numpy arrays.

A small tape for targets that have no closed-form θ-gradient (the MLP and
any duck-typed target): arithmetic, exp / log / sqrt / tanh, reductions
(sum), matrix products, and basic indexing, reshaping and stacking.  The
families never run on it; their draws, log q and adjoints are closed form
(``families.draws_logq_vjp``).

Every primitive accepts plain numbers and arrays as well as ``Var`` nodes
and only records when at least one input is a ``Var``.  The same formula
code therefore serves both the differentiable path and plain numpy
evaluation.  The elementwise primitives come from two constructors:
``_binary`` (add, sub, mul, div) and ``_unary`` (neg, exp, log, sqrt,
tanh).  A graph is built per evaluation and confined to the calling
thread; adjoints are accumulated in a fixed topological order, so repeated
evaluation with identical inputs is bit-identical.  ``logsumexp``,
``cho_factor`` and ``cho_solve`` work on plain arrays only; the last two
are numpy's LAPACK, the one build every factorization in vifit goes
through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AutodiffError(Exception):
    pass


class NonFiniteValueError(AutodiffError):
    """A tape primitive, or a term of a closed-form ELBO step, produced a NaN
    or infinity; ``primitive`` names it."""

    def __init__(self, primitive: str, detail: str = ""):
        self.primitive = primitive
        msg = f"non-finite value produced by '{primitive}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnsupportedPrimitiveError(AutodiffError):
    """An operation outside the supported primitive set was attempted."""


def _is_var(x) -> bool:
    return isinstance(x, Var)


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _node(name: str, value, parents) -> "Var":
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise NonFiniteValueError(name)
    out = Var.__new__(Var)
    out.value = value
    out._parents = tuple(parents)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an upstream gradient down to the shape of a broadcast operand."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Var:
    """Tape node: a float64 array value plus parent edges carrying VJPs.

    The adjoint slot lives in the backward pass's accumulator rather than
    on the node, so a node may participate in several backward passes.
    """

    __slots__ = ("value", "_parents")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = ()

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    @property
    def size(self):
        return self.value.size

    @property
    def T(self):
        return transpose(self)

    def __repr__(self):
        return f"Var({self.value!r})"

    # Arithmetic operators; reflected variants make ndarray-Var mixes work.
    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(other, self)

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, exponent):
        return _pow(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def __float__(self):
        raise UnsupportedPrimitiveError(
            "float() on a Var breaks the tape; use .value for inspection"
        )

    def __bool__(self):
        raise UnsupportedPrimitiveError(
            "truth-value of a Var is not differentiable"
        )

    # numpy dispatches its ufuncs here (e.g. np.exp(var)); route the
    # supported ones through the tape and name the rest in the error.
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            raise UnsupportedPrimitiveError(
                f"numpy ufunc '{ufunc.__name__}.{method}' is not a supported primitive"
            )
        fn = _UFUNC_TABLE.get(ufunc)
        if fn is None:
            raise UnsupportedPrimitiveError(
                f"numpy ufunc '{ufunc.__name__}' is not a supported primitive"
            )
        return fn(*inputs)


def _binary(name: str, fn, vjp_a, vjp_b):
    """An elementwise two-operand primitive with broadcasting.

    ``vjp_a(g, av, bv)`` / ``vjp_b(g, av, bv)`` give each operand's adjoint
    at the broadcast shape; it is summed down to the operand's own shape.
    """

    def primitive(a, b):
        if not (_is_var(a) or _is_var(b)):
            return fn(_val(a), _val(b))
        av, bv = _val(a), _val(b)
        parents = []
        if _is_var(a):
            parents.append((a, lambda g: _unbroadcast(vjp_a(g, av, bv), av.shape)))
        if _is_var(b):
            parents.append((b, lambda g: _unbroadcast(vjp_b(g, av, bv), bv.shape)))
        return _node(name, fn(av, bv), parents)

    return primitive


def _unary(name: str, fn, vjp):
    """An elementwise one-operand primitive; ``vjp(g, xv, out)`` is its adjoint."""

    def primitive(x):
        if not _is_var(x):
            return fn(_val(x))
        xv = x.value
        out = fn(xv)
        return _node(name, out, [(x, lambda g: vjp(g, xv, out))])

    return primitive


_add = _binary("add", np.add, lambda g, a, b: g, lambda g, a, b: g)
_sub = _binary("sub", np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
_mul = _binary("mul", np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
_div = _binary(
    "div", np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)
)
_neg = _unary("neg", np.negative, lambda g, x, out: -g)
exp = _unary("exp", np.exp, lambda g, x, out: g * out)
log = _unary("log", np.log, lambda g, x, out: g / x)
sqrt = _unary("sqrt", np.sqrt, lambda g, x, out: g * 0.5 / out)
tanh = _unary("tanh", np.tanh, lambda g, x, out: g * (1.0 - out * out))


def _pow(a, exponent):
    if _is_var(exponent):
        raise UnsupportedPrimitiveError("power with a Var exponent")
    c = float(exponent)
    if not _is_var(a):
        return np.power(_val(a), c)
    av = a.value
    return _node("pow", av**c, [(a, lambda g: g * c * av ** (c - 1.0))])


def sum(x, axis=None):  # noqa: A001 - mirrors numpy naming
    if not _is_var(x):
        return np.sum(_val(x), axis=axis)
    xv = x.value
    if axis is None:
        vjp = lambda g: np.broadcast_to(g, xv.shape)
    else:
        ax = axis % xv.ndim

        def vjp(g, _ax=ax, _shape=xv.shape):
            return np.broadcast_to(np.expand_dims(g, _ax), _shape)

    return _node("sum", np.sum(xv, axis=axis), [(x, vjp)])


def matmul(a, b):
    av, bv = _val(a), _val(b)
    if not (_is_var(a) or _is_var(b)):
        return av @ bv
    parents = []
    if av.ndim == 1 and bv.ndim == 1:
        if _is_var(a):
            parents.append((a, lambda g: g * bv))
        if _is_var(b):
            parents.append((b, lambda g: g * av))
    elif av.ndim == 2 and bv.ndim == 2:
        if _is_var(a):
            parents.append((a, lambda g: g @ bv.T))
        if _is_var(b):
            parents.append((b, lambda g: av.T @ g))
    elif av.ndim == 2 and bv.ndim == 1:
        if _is_var(a):
            parents.append((a, lambda g: np.outer(g, bv)))
        if _is_var(b):
            parents.append((b, lambda g: av.T @ g))
    elif av.ndim == 1 and bv.ndim == 2:
        if _is_var(a):
            parents.append((a, lambda g: bv @ g))
        if _is_var(b):
            parents.append((b, lambda g: np.outer(av, g)))
    else:
        raise UnsupportedPrimitiveError("matmul supports 1-D and 2-D operands only")
    return _node("matmul", av @ bv, parents)


def transpose(x):
    if not _is_var(x):
        return _val(x).T
    return _node("transpose", x.value.T, [(x, lambda g: np.asarray(g).T)])


def reshape(x, shape):
    if not _is_var(x):
        return _val(x).reshape(shape)
    orig = x.value.shape
    return _node("reshape", x.value.reshape(shape), [(x, lambda g: np.asarray(g).reshape(orig))])


def getitem(x, idx):
    if not _is_var(x):
        return _val(x)[idx]
    xv = x.value

    def vjp(g, _idx=idx, _shape=xv.shape):
        full = np.zeros(_shape, dtype=np.float64)
        np.add.at(full, _idx, g)
        return full

    return _node("getitem", xv[idx], [(x, vjp)])


def stack(items, axis=0):
    if not any(_is_var(it) for it in items):
        return np.stack([_val(it) for it in items], axis=axis)
    values = [_val(it) for it in items]
    parents = []
    for i, it in enumerate(items):
        if _is_var(it):
            parents.append((it, lambda g, _i=i: np.take(g, _i, axis=axis)))
    return _node("stack", np.stack(values, axis=axis), parents)


def logsumexp(x, axis=None):
    """log Σ exp(x) along ``axis`` on a plain array, shifted by the max so
    nothing overflows.

    Where the max is not finite the shift is 0: a slice of all −∞ gives −∞
    (log 0, without a warning) and one holding +∞ gives +∞.  Where every
    shift is finite each sum holds exp(0) = 1, so log never meets 0.
    """
    xv = np.asarray(x, dtype=np.float64)
    shift = xv.max(axis=axis, keepdims=True)
    finite = np.isfinite(shift)
    if finite.all():
        out = np.log(np.exp(xv - shift).sum(axis=axis, keepdims=True)) + shift
    else:
        shift = np.where(finite, shift, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.exp(xv - shift).sum(axis=axis, keepdims=True)) + shift
    return out.reshape(())[()] if axis is None else out.squeeze(axis)


def _check_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def cho_factor(c) -> tuple:
    """The lower Cholesky factor of c as ``(factor, True)``: ``np.linalg.cholesky``.

    Raises ``ValueError`` on non-finite input and ``np.linalg.LinAlgError``
    (the class ``scipy.linalg.LinAlgError`` names too) when c is not
    positive definite.
    """
    return np.linalg.cholesky(_check_finite(np.asarray(c))), True


def cho_solve(factor: tuple, b) -> np.ndarray:
    """c⁻¹ b from ``cho_factor(c)``: L y = b, then Lᵀ x = y.

    numpy has no public triangular solve, so each half is an LU
    ``np.linalg.solve`` on the triangle; both are backward stable.  Raises
    ``ValueError`` on non-finite b.
    """
    chol = factor[0]
    b = _check_finite(np.asarray(b))
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


_UFUNC_TABLE = {
    np.add: _add,
    np.subtract: _sub,
    np.multiply: _mul,
    np.true_divide: _div,
    np.negative: _neg,
    np.exp: exp,
    np.log: log,
    np.sqrt: sqrt,
    np.tanh: tanh,
    np.matmul: matmul,
    np.power: _pow,
}


def _topological_order(root: Var) -> list:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(output: Var, wrt) -> list:
    """Adjoints of a scalar ``output`` with respect to each Var in ``wrt``.

    Seeds the output adjoint with 1 and accumulates in reverse topological
    order.  Vars not reached by any path get a zero gradient.
    """
    if output.value.shape != ():
        raise ValueError("backward expects a scalar output")
    grads: dict[int, np.ndarray] = {id(output): np.ones(())}
    for node in reversed(_topological_order(output)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node._parents:
            contribution = vjp(g)
            existing = grads.get(id(parent))
            grads[id(parent)] = (
                contribution if existing is None else existing + contribution
            )
    return [
        np.array(grads[id(v)])
        if id(v) in grads
        else np.zeros(v.value.shape)
        for v in wrt
    ]


@dataclass
class GradientReport:
    """Value and exact reverse-mode gradient of an objective at one point."""

    value: float
    gradient: np.ndarray
    max_abs_component: float


def evaluate_with_gradient(objective, psi) -> GradientReport:
    """Evaluate ``objective`` at ``psi`` and differentiate it end to end.

    ``objective`` maps a 1-D Var of variational parameters to a scalar; the
    returned gradient is the exact reverse-mode derivative of the composed
    expression.  Objectives with no dependence on the input yield a zero
    gradient.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim != 1:
        raise ValueError("psi must be a flat 1-D vector")
    leaf = Var(psi)
    out = objective(leaf)
    if isinstance(out, Var):
        if out.value.shape != ():
            raise ValueError("objective must return a scalar")
        value = float(out.value)
        (grad,) = backward(out, [leaf])
    else:
        value = float(out)
        grad = np.zeros(psi.shape)
    if not np.isfinite(value):
        raise NonFiniteValueError("objective", "non-finite output value")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteValueError("backward", "non-finite gradient component")
    return GradientReport(
        value=value,
        gradient=grad,
        max_abs_component=float(np.max(np.abs(grad))) if grad.size else 0.0,
    )


def finite_difference_gradient(objective, psi, step=None) -> np.ndarray:
    """Central-difference gradient, the independent check on any gradient.

    With ``step=None`` each coordinate uses ``1e-4 * max(1, |psi_i|)``, the
    usual conditioning trade-off for float64 objectives.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if step is None:
        steps = 1e-4 * np.maximum(1.0, np.abs(psi))
    else:
        if step <= 0:
            raise ValueError("step must be positive")
        steps = np.full(psi.shape, float(step))
    grad = np.zeros(psi.shape)
    for i in range(psi.size):
        h = steps[i]
        hi = psi.copy()
        hi[i] += h
        lo = psi.copy()
        lo[i] -= h
        f_hi = _plain_value(objective, hi)
        f_lo = _plain_value(objective, lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NonFiniteValueError(
                "finite_difference", f"non-finite evaluation at probe coordinate {i}"
            )
        grad[i] = (f_hi - f_lo) / (2.0 * h)
    return grad


def _plain_value(objective, psi: np.ndarray) -> float:
    out = objective(psi)
    return float(out.value) if isinstance(out, Var) else float(out)
