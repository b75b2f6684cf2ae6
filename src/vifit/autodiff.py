"""Reverse-mode differentiation over flat numpy arrays, reduced to one node.

Training never builds a graph: every family's draws, log q and adjoints
are closed form (``families.draws_logq_vjp``), and so is every target's
log joint and θ-gradient.  What remains is the check on that gradient.
``trainer.elbo_graph`` records the ELBO estimate as one node (``_node``)
whose edge to psi carries the closed-form gradient as its vector-Jacobian
product; ``backward`` and ``evaluate_with_gradient`` read that one node
back.  There is no graph to walk: ``backward`` rejects an output whose
parents have parents of their own.

``logsumexp``, ``row_sums``, ``cholesky`` and ``cho_solve`` work on plain
arrays.  ``row_sums`` is the audit blocks' ``np.add.reduce`` over rows, in
numpy's own order but across all rows at once.  ``cholesky`` and
``cho_solve`` are numpy's LAPACK, the one build every factorization in
vifit goes through.  ``cholesky`` raises ``MemberFailure`` on a matrix
that is not finite or not positive definite.

``MemberFailure`` is vifit's one numerical failure: a tape node or ELBO
term that is not finite, a degenerate factorization, or an audit that
meets a degenerate fit.  It ends one roster member's fit, not the command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MemberFailure(ArithmeticError):
    """A numerical failure that ends one member's fit; the message names the
    term.  ``step`` is the training step it happened at, None outside
    training, and the message ends with it when known."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.step is None else f"{text} at step {self.step}"


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _node(name: str, value, parents) -> "Var":
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise MemberFailure(f"non-finite value produced by '{name}'")
    out = Var.__new__(Var)
    out.value = value
    out._parents = tuple(parents)
    return out


class Var:
    """Tape node: a float64 array value plus parent edges carrying VJPs.

    A leaf has no parents; the one recorded node (``_node``) has edges to
    leaves only.  Adjoints live in ``backward``'s result, not on the node.
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
    # The ufuncs' reductions, not the ndarray methods that wrap them: the
    # same arithmetic in fewer Python calls, on every mixture step.
    xv = np.asarray(x, dtype=np.float64)
    shift = np.maximum.reduce(xv, axis=axis, keepdims=True)
    finite = np.isfinite(shift)
    if np.logical_and.reduce(finite, axis=None):
        out = np.log(np.add.reduce(np.exp(xv - shift), axis=axis, keepdims=True)) + shift
    else:
        shift = np.where(finite, shift, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.add.reduce(np.exp(xv - shift), axis=axis, keepdims=True)) + shift
    return out.reshape(())[()] if axis is None else out.squeeze(axis)


# From this many rows on, ``row_sums`` is at least as fast as
# ``np.add.reduce`` at every row length it handles; at n = 8 the two cost
# the same near 256 rows.  Callers test their row count against it before
# calling, so a training step of 8 to 16 rows makes the calls it made
# before.
ROW_SUMS_MIN_ROWS = 256


def row_sums(x: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=-1)`` bit for bit, one ufunc call per stage of
    the sum across all rows at once; x, a temporary of the caller's, may be
    overwritten.

    numpy makes one inner-loop call per row when it reduces the last axis,
    which for an audit block of 8192 rows of length 8 costs four times the
    arithmetic.  It sums a row of n as 0 + pairwise_sum: for n < 8 in
    sequence, for 8 ≤ n ≤ 128 in eight accumulators r_j (every eighth
    entry from j) combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), the last n mod 8 entries added after in sequence, and above
    128 as the sum of two halves.  This reproduces that order for n ≤ 8,
    where every stage reads single columns or slices that numpy coalesces
    into one stride: the columns in sequence for n < 8, three in-place
    levels of the tree for n = 8.  Longer rows, whose slices do not
    coalesce, and fewer than ``ROW_SUMS_MIN_ROWS`` rows go to
    ``np.add.reduce``; the rule reads only the shape.  Starting from +0.0
    makes the 0 + of numpy's reduction: no sum starting there is −0.0.
    """
    n = x.shape[-1]
    if not 0 < n <= 8 or x.size < ROW_SUMS_MIN_ROWS * n:
        return np.add.reduce(x, axis=-1)
    if n < 8:
        out = x[..., 0] + 0.0
        for col in range(1, n):
            out += x[..., col]
        return out
    np.add(x[..., 0::2], x[..., 1::2], out=x[..., 0::2])
    np.add(x[..., 0::4], x[..., 2::4], out=x[..., 0::4])
    out = x[..., 0] + x[..., 4]
    out += 0.0
    return out


def cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    """The lower Cholesky factor of ``matrix``: ``np.linalg.cholesky``.

    Raises ``MemberFailure`` naming ``what`` when the matrix is not finite
    (checked before factorizing) or not positive definite.
    """
    if not np.isfinite(matrix).all():
        raise MemberFailure(f"{what} is not finite")
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as err:
        raise MemberFailure(f"{what} is not positive definite: {err}") from err


def cho_solve(chol: np.ndarray, b) -> np.ndarray:
    """c⁻¹ b from c's lower factor ``chol``: L y = b, then Lᵀ x = y.

    numpy has no public triangular solve, so each half is an LU
    ``np.linalg.solve`` on the triangle; both are backward stable.
    """
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


def backward(output: Var, wrt) -> list:
    """Adjoints of a scalar one-node ``output`` with respect to each Var in ``wrt``.

    A Var's adjoint is the sum of the output's edge VJPs at 1 along its
    edges to that Var; the output's own is 1, and a Var with no edge gets
    zeros.  Raises ``ValueError`` for a non-scalar output, and for one with
    a parent that has parents of its own: a deeper graph fails loudly
    rather than get a partial gradient.
    """
    if output.value.shape != ():
        raise ValueError("backward expects a scalar output")
    if any(parent._parents for parent, _ in output._parents):
        raise ValueError("backward reads one node: a parent of the output has parents")
    grads: dict[int, np.ndarray] = {id(output): np.ones(())}
    for parent, vjp in output._parents:
        contribution = vjp(grads[id(output)])
        existing = grads.get(id(parent))
        grads[id(parent)] = contribution if existing is None else existing + contribution
    return [np.array(grads[id(v)]) if id(v) in grads else np.zeros(v.value.shape) for v in wrt]


@dataclass
class GradientReport:
    """Value and exact reverse-mode gradient of an objective at one point."""

    value: float
    gradient: np.ndarray


def evaluate_with_gradient(objective, psi) -> GradientReport:
    """Evaluate ``objective`` at ``psi`` and read its gradient back.

    ``objective`` maps a 1-D Var of variational parameters to a scalar: one
    node with edges to that Var, whose VJPs ``backward`` sums into the
    gradient.  Objectives with no dependence on the input yield a zero
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
        raise MemberFailure("non-finite value produced by 'objective' (non-finite output value)")
    if not np.all(np.isfinite(grad)):
        raise MemberFailure(
            "non-finite value produced by 'backward' (non-finite gradient component)"
        )
    return GradientReport(value=value, gradient=grad)
