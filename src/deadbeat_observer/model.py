"""System descriptions: plants whose dynamics are linear in the unmeasured state.

A SystemSpec packages the four evaluator maps

    x' = A(y, u) x + b(y, u)
    y_i' = f_i(y, u) + sum_j C[j, i](y) x_j

together with explicit domain predicates for the state set and the
admissible input set.  ``eval_C`` returns the n-by-k matrix whose transpose
multiplies x in the output dynamics.

The optional ``eval_batch(Y, U)`` evaluates all four maps at N points at
once: given Y of shape (N, k) and U of shape (N, m) it returns (A, b, C, f)
of shapes (N, n, n), (N, n), (N, n, k) and (N, k).  ``eval_coefficients``
uses it when it is set and otherwise calls the per-point evaluators.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class SystemSpec:
    n: int
    k: int
    m: int
    eval_A: Callable
    eval_b: Callable
    eval_C: Callable
    eval_f: Callable
    eval_batch: Callable = None
    in_domain: Callable = field(default=lambda x, y: True)
    in_input_set: Callable = field(default=lambda u: True)


class InputSignal:
    """Admissible input as a function of time.

    Constant and closure inputs are evaluated exactly at any t; sampled
    piecewise-constant inputs hold the value of the most recent node.
    """

    def __init__(self, fn, m):
        self._fn = fn
        self.m = m

    def __call__(self, t):
        return self._fn(t)

    @classmethod
    def constant(cls, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(lambda t: u, u.size)

    @classmethod
    def zero(cls, m):
        u = np.zeros(max(m, 1))
        return cls(lambda t: u, m)

    @classmethod
    def sampled(cls, grid, values):
        """Piecewise-constant hold of per-node samples on ``grid``."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != grid.count:
            raise DimensionMismatch(
                f"{values.shape[0]} input samples for a {grid.count}-node grid"
            )

        def fn(t):
            j = int(np.floor((t - grid.t0) / grid.h + 1e-9))
            j = min(max(j, 0), grid.count - 1)
            return values[j]

        return cls(fn, values.shape[1])

    @classmethod
    def closure(cls, fn, m):
        return cls(lambda t: np.atleast_1d(np.asarray(fn(t), dtype=float)), m)


def eval_coefficients(spec, Y, U):
    """(A, b, C, f) at each row of (Y, U), stacked along a leading axis.

    Calls ``spec.eval_batch`` once when it is set; otherwise fills the stacks
    point by point from the four per-point evaluators.
    """
    n, k = spec.n, spec.k
    N = Y.shape[0]
    shapes = ((N, n, n), (N, n), (N, n, k), (N, k))
    if spec.eval_batch is not None:
        out = tuple(np.asarray(a, dtype=float) for a in spec.eval_batch(Y, U))
        for a, shape in zip(out, shapes):
            if a.shape != shape:
                raise DimensionMismatch(
                    f"eval_batch returned shape {a.shape}, expected {shape}")
        return out
    A, b, C, f = (np.empty(shape) for shape in shapes)
    for i in range(N):
        y, u = Y[i], U[i]
        A[i] = spec.eval_A(y, u)
        b[i] = spec.eval_b(y, u)
        C[i] = np.asarray(spec.eval_C(y), dtype=float).reshape(n, k)
        f[i] = spec.eval_f(y, u)
    return A, b, C, f


def make_lti(A, b, C, f):
    """SystemSpec with constant evaluators; domains are all of R^n x R^k.

    ``C`` is the n-by-k matrix whose transpose appears in the output dynamics.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (n,):
        raise DimensionMismatch(f"b must have length {n}, got {b.shape}")
    C = np.asarray(C, dtype=float).reshape(n, -1)
    k = C.shape[1]
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if f.shape != (k,):
        raise DimensionMismatch(f"f must have length {k}, got {f.shape}")
    return SystemSpec(
        n=n,
        k=k,
        m=1,
        eval_A=lambda y, u: A,
        eval_b=lambda y, u: b,
        eval_C=lambda y: C,
        eval_f=lambda y, u: f,
        eval_batch=lambda Y, U: (
            np.broadcast_to(A, (len(Y), n, n)), np.broadcast_to(b, (len(Y), n)),
            np.broadcast_to(C, (len(Y), n, k)), np.broadcast_to(f, (len(Y), k)),
        ),
    )


def scalar_oracle_spec():
    """The canonical test system x' = 0, y' = x (n = k = 1)."""
    return make_lti(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))
