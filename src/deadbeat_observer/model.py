"""System descriptions: plants whose dynamics are linear in the unmeasured state.

A SystemSpec packages the four evaluator maps

    x' = A(y, u) x + b(y, u)
    y_i' = f_i(y, u) + sum_j C[j, i](y) x_j

together with an explicit domain predicate ``in_domain(x, y)`` for the state
set.  At a point y of shape (k,) and u of shape (m,), ``eval_A``, ``eval_b``,
``eval_C`` and ``eval_f`` return ndarrays of shapes (n, n), (n,), (n, k) and
(k,); ``eval_C`` is the n-by-k matrix whose transpose multiplies x in the
output dynamics.  ``check_point_evaluators`` checks this contract once per
run and raises DimensionMismatch otherwise; ``point_rate(spec, s, u)``, the
(x, y) rate at one stacked point, then uses the arrays as they are.  A
constant block may be one array returned by every call, since no caller
writes into a result: ``point_rate``, the observer's reduced flow step and its
kept right-node A and b, ``check_point_evaluators`` and ``eval_coefficients``
only read it.

The required ``eval_batch(Y, U)`` evaluates all four maps at N points at
once: given (N, k) Y and (N, m) U it returns arrays (A, b, C, f) of
shapes (N, n, n), (N, n), (N, n, k) and (N, k).  ``eval_coefficients``,
which fills the window engine's coefficient stacks, calls only it; the
plant and ``observer_step`` call the per-point evaluators.

An input is any function u(t) that returns an ndarray of shape (m,);
``sampled_input`` holds recorded per-node samples.

``in_domain(x, y)`` is the only domain predicate: the plant and both observer
paths call it at every node.
"""

import math
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
    eval_batch: Callable
    in_domain: Callable = field(default=lambda x, y: True)


def sampled_input(grid, values):
    """Input u(t) that holds the sample of the most recent node of ``grid``.

    That node is floor((t - t0)/h + 1e-9), clamped to the grid: a time less
    than 1e-9 steps short of a node holds that node's sample, and a time
    before the grid the first sample.  ``values`` is (count, m), one row per
    node; any other shape raises DimensionMismatch.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != grid.count:
        raise DimensionMismatch(
            f"input samples of shape {values.shape} for a {grid.count}-node grid")

    def u(t):
        j = math.floor((t - grid.t0) / grid.h + 1e-9)
        return values[min(max(j, 0), grid.count - 1)]

    return u


def eval_coefficients(spec, Y, U):
    """(A, b, C, f) at each row of (Y, U), stacked along a leading axis.

    Calls ``spec.eval_batch`` once and raises DimensionMismatch unless its
    arrays have shapes (N, n, n), (N, n), (N, n, k) and (N, k).
    """
    n, k = spec.n, spec.k
    N = Y.shape[0]
    out = tuple(np.asarray(a, dtype=float) for a in spec.eval_batch(Y, U))
    for a, shape in zip(out, ((N, n, n), (N, n), (N, n, k), (N, k))):
        if a.shape != shape:
            raise DimensionMismatch(f"eval_batch returned shape {a.shape}, expected {shape}")
    return out


def check_point_evaluators(spec, y, u):
    """Call the four per-point evaluators once at (y, u) and check their results.

    Raises DimensionMismatch unless ``eval_A``, ``eval_b``, ``eval_C`` and
    ``eval_f`` return ndarrays of shapes (n, n), (n,), (n, k) and (k,).
    """
    n, k = spec.n, spec.k
    for name, value, shape in (("eval_A", spec.eval_A(y, u), (n, n)),
                               ("eval_b", spec.eval_b(y, u), (n,)),
                               ("eval_C", spec.eval_C(y), (n, k)),
                               ("eval_f", spec.eval_f(y, u), (k,))):
        if not isinstance(value, np.ndarray) or value.shape != shape:
            got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
            raise DimensionMismatch(f"{name} returned {got}, expected an ndarray of shape {shape}")


def point_rate(spec, s, u):
    """(A x + b, f + C^T x) at the stacked state s = (x, y) under input u.

    The evaluators' arrays are used as they are, so run
    ``check_point_evaluators`` once before stepping with this rate.
    """
    x, y = s[:spec.n], s[spec.n:]
    return np.concatenate((spec.eval_A(y, u).dot(x) + spec.eval_b(y, u),
                           spec.eval_f(y, u) + x.dot(spec.eval_C(y))))


def make_lti(A, b, C, f):
    """SystemSpec with constant evaluators; domains are all of R^n x R^k.

    ``C`` is the n-by-k matrix whose transpose appears in the output dynamics.
    An A that is not square, a b or f of the wrong length, or a C that is not
    a 2-D array of n rows raises DimensionMismatch; nothing is reshaped, so a
    4x1 or 1x4 C for n = 2 is rejected.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (n,):
        raise DimensionMismatch(f"b must have length {n}, got {b.shape}")
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != n:
        raise DimensionMismatch(f"C must have {n} rows, got {C.shape}")
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
        eval_batch=lambda Y, U: tuple(np.repeat(a[None], len(Y), axis=0)
                                      for a in (A, b, C, f)),
    )

