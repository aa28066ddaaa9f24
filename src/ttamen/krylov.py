"""Conjugate gradients and restarted GMRES for the matrix-free local solves.

Both follow ``scipy/sparse/linalg/_isolve/iterative.py`` of SciPy 1.17
(BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy
Developers) step for step: the same modified Gram-Schmidt order, the same
LAPACK ``lartg`` Givens rotations, the same restart tolerance control and
the same back-substitution.  For a real operator, no preconditioner and
``atol=0`` they therefore return the same bits as
``scipy.sparse.linalg.cg``/``gmres``.

What is left out: the ``LinearOperator`` coercion, callbacks,
preconditioners and complex arithmetic.  What is added: the caller may pass
the initial residual ``r0 = b - A x0`` it has already formed, and ``gmres``
returns the norm of the true residual it computes last, so neither product
is made twice.  An operator is anything with a ``matvec`` method.
"""

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = ["LinearOperator", "cg", "gmres"]

_lartg = get_lapack_funcs("lartg", dtype=np.float64)
_EPS = np.finfo(np.float64).eps


class LinearOperator:
    """An operator given by its product: ``shape``, ``matvec(v)``, ``dtype``."""

    def __init__(self, shape, matvec, dtype):
        self.shape, self.matvec, self.dtype = shape, matvec, np.dtype(dtype)


def _start(op, b, x0, r0):
    """A private copy of the initial guess and its residual."""
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=np.float64)
    if r0 is None:
        return x, (b - op.matvec(x) if x.any() else b.copy())
    return x, r0.copy()


def cg(op, b, x0=None, *, rtol, maxiter, r0=None):
    """Conjugate gradients for a symmetric positive definite ``op``.

    Stops once the recursively updated residual is below ``rtol * norm(b)``
    or after ``maxiter`` products.  Returns ``(x, code)``: code 0 on
    convergence, ``maxiter`` otherwise.
    """
    bnrm2 = np.linalg.norm(b)
    atol = rtol * float(bnrm2)
    if bnrm2 == 0:
        return np.zeros(b.size), 0
    x, r = _start(op, b, x0, r0)
    rho_prev = p = None
    for iteration in range(maxiter):
        rho_cur = np.dot(r, r)
        if math.sqrt(rho_cur) < atol:  # the bits of np.linalg.norm(r)
            return x, 0
        if iteration > 0:
            p *= rho_cur / rho_prev
            p += r
        else:
            p = r.copy()
        q = op.matvec(p)
        alpha = rho_cur / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho_cur
    return x, maxiter


def gmres(op, b, x0=None, *, rtol, restart, maxiter, r0=None):
    """Restarted GMRES; ``maxiter`` counts restart cycles.

    Returns ``(x, code, rnorm)``: code 0 when ``rnorm <= rtol * norm(b)``,
    ``maxiter`` otherwise, and ``rnorm = norm(b - op.matvec(x))``.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = rtol * float(bnrm2)
    if bnrm2 == 0:
        return np.zeros(n), 0, 0.0
    restart = min(restart, n)
    # tolerance control of the inner iteration (scipy gh-8400)
    ptol_max_factor = 1.0
    ptol = bnrm2 * min(ptol_max_factor, atol / bnrm2)
    x, r = _start(op, b, x0, r0)
    rnorm = np.linalg.norm(r)
    if rnorm < atol:
        return x, 0, rnorm
    v = np.empty((restart + 1, n))
    buf = np.empty(n)  # holds tmp * v[k], so the Gram-Schmidt makes no temporaries
    h = np.zeros((restart, restart + 1))  # row col: Hessenberg column col
    for _ in range(maxiter):
        v[0] = r
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        S = [tmp]  # rotated right-hand side of the Hessenberg problem
        givens = []
        for col in range(restart):
            w = op.matvec(v[col])
            # modified Gram-Schmidt
            h0 = math.sqrt(w.dot(w))  # the bits of np.linalg.norm(w)
            hcol = []
            for k in range(col + 1):
                vk = v[k]
                tmp = np.dot(vk, w)
                hcol.append(tmp)
                np.multiply(tmp, vk, out=buf)
                w -= buf
            h1 = math.sqrt(w.dot(w))
            v[col + 1] = w
            breakdown = h1 <= _EPS * h0  # exact solution reached
            if breakdown:
                h1 = 0.0
            else:
                v[col + 1] *= 1 / h1
            for k, (c, s) in enumerate(givens):
                n0, n1 = hcol[k], hcol[k + 1]
                hcol[k], hcol[k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, hcol[col] = _lartg(hcol[col], h1)
            givens.append((c, s))
            h[col, : col + 1] = hcol
            tmp = -s * S[col]
            S[col] = c * S[col]
            S.append(tmp)
            presid = abs(tmp)
            if presid <= ptol or breakdown:
                break
        # back-substitution, pseudo-solving a singular triangle
        if h[col, col] == 0:
            S[col] = 0.0
        y = np.array(S[: col + 1])
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[: col + 1]
        r = b - op.matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:  # the inner iteration passed, the outer did not
            ptol_max_factor = max(_EPS, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, (0 if rnorm <= atol else maxiter), rnorm
