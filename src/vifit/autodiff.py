"""Reverse-mode differentiation over flat numpy arrays, reduced to one node.

Training never builds a graph: every family's draws, log q and adjoints
are closed form (``families.draws_logq_vjp``), and so is every target's
log joint and θ-gradient.  What remains is the check on that gradient.
``trainer.elbo_graph`` records the ELBO estimate as one node (``_node``)
whose vector-Jacobian product is the closed-form gradient; ``backward``
and ``evaluate_with_gradient`` read it back, and
``finite_difference_gradient`` gives the independent central-difference
check the acceptance gate compares it with.  ``backward`` still walks a
graph of any depth in a fixed topological order, so repeated evaluation
with identical inputs is bit-identical.

``logsumexp``, ``cho_factor`` and ``cho_solve`` work on plain arrays; the
last two are numpy's LAPACK, the one build every factorization in vifit
goes through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteValueError(Exception):
    """A tape node, or a term of a closed-form ELBO step, produced a NaN or
    infinity; ``primitive`` names it."""

    def __init__(self, primitive: str, detail: str = ""):
        self.primitive = primitive
        msg = f"non-finite value produced by '{primitive}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


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


class Var:
    """Tape node: a float64 array value plus parent edges carrying VJPs.

    The adjoint slot lives in the backward pass's accumulator rather than
    on the node, so a node may participate in several backward passes.
    """

    __slots__ = ("value", "_parents")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = ()


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
    return GradientReport(value=value, gradient=grad)


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
