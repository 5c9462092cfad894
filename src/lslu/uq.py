"""Low-rank posterior covariance approximation from the Krylov factors.

For the Gaussian linear model with noise variance sigma2 and posterior
covariance sigma2 * (reg*I + A^T A)^{-1}, the factorization after k
iterations yields the low-rank surrogate A^T A ~= Z diag(spectrum) Z^T.
The Woodbury identity then gives the rank-k posterior representation

    Gamma_k = sigma2 * (I/reg - Z Delta Z^T),

whose diagonal (solution variances) and total sum are cheap to read
off.  Because the basis is not orthonormal, Delta is a full (but only
k-by-k) symmetric matrix.

The residual basis D enters through R_k, the leading block of its R
factor (KrylovState.r_factor); the rank is cut, with a warning, while
cond(R_k)^2 = cond(D_k^T D_k) exceeds GRAM_COND_LIMIT.  Delta comes
from LAPACK's dpotrf and dpotrs, called directly with the arguments and
checks of scipy.linalg.cho_factor and cho_solve, whose bits they give.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import get_lapack_funcs

from .hessenberg import (check_grown, check_lapack_info, check_maxiter, check_real,
                         condition_number, finite_matrix)

# the routines behind scipy.linalg.cho_factor and cho_solve (see hessenberg)
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)

GRAM_COND_LIMIT = 1e12


@dataclass
class UqApprox:
    """Pieces of the rank-k posterior representation."""

    Z: np.ndarray
    spectrum: np.ndarray
    Delta: np.ndarray
    sigma2: float
    reg: float
    k: int


def woodbury_delta(Z, spectrum, reg):
    """Core k-by-k matrix making I/reg - Z Delta Z^T the exact inverse
    of reg*I + Z diag(spectrum) Z^T (scaled Woodbury solve)."""
    M = Z.T @ Z + reg * np.diag(1.0 / spectrum)
    # cho_factor then cho_solve against the identity, bit for bit
    factor, info = _potrf(finite_matrix((M + M.T) / 2.0, "Woodbury matrix"), clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the Woodbury matrix "
                          "is not positive definite")
    check_lapack_info(info, "dpotrf")
    Delta, info = _potrs(factor, np.eye(M.shape[0]))
    check_lapack_info(info, "dpotrs")
    Delta /= reg
    return (Delta + Delta.T) / 2.0


def _assemble(L_mat, R, W_mat, sigma2, reg):
    # keep only as many columns as the residual basis supports: R_k, the
    # leading block of its R factor, has cond(R_k)^2 = cond(D_k^T D_k)
    k = L_mat.shape[1]
    while k >= 1 and condition_number(R[:k, :k]) ** 2 > GRAM_COND_LIMIT:
        k -= 1
    if k < 1:
        raise ValueError("residual basis Gram matrix is numerically singular")
    if k < L_mat.shape[1]:
        warnings.warn(f"ill-conditioned Gram matrix; truncating rank to {k}",
                      RuntimeWarning)

    # the core W (R^T R)^{-1} W^T is X X^T, X = W R^{-1}: its eigenpairs are
    # the right singular vectors of X^T = R^{-T} W^T and sigma^2
    Xt = dtrsm(1.0, R[:k, :k], W_mat[:k, :k].T, trans_a=1)
    _, sing, vecs = np.linalg.svd(Xt)
    vals, vecs = sing**2, vecs.T
    keep = vals > vals[0] * 1e-14
    if not np.any(keep):
        raise ValueError("low-rank spectrum collapsed to zero")
    vals, vecs = vals[keep], vecs[:, keep]
    Z = L_mat[:, :k] @ vecs
    return UqApprox(Z=Z, spectrum=vals, Delta=woodbury_delta(Z, vals, reg),
                    sigma2=float(sigma2), reg=float(reg), k=int(vals.shape[0]))


def check_noise_model(sigma2, reg):
    """Reject a noise variance sigma2 that is not finite and >= 0, or a
    regularization reg that is not finite and > 0, naming the input."""
    check_real(sigma2, "sigma2", positive=False)
    check_real(reg, "reg", positive=True)


def build_uq(state, sigma2, reg, k=None):
    """Posterior pieces from either factorization state, through
    A^T A ~= S_k C_k (R_k^T R_k)^{-1} C_k^T S_k^T with the first k columns
    of its solution basis, R_k from state.r_factor("residual") and its
    k-by-k coupling (W_k or B_k^T).  k is an integer >= 1, capped at (and
    defaulting to) the largest rank the state supports."""
    check_noise_model(sigma2, reg)
    if k is not None:
        check_maxiter(k, "k")
    check_grown(state)
    k = state.k if k is None else min(k, state.k)
    return _assemble(state.solution_basis[:, :k], state.r_factor("residual"),
                     state.coupling[:k, :k], sigma2, reg)


#: The bidiagonalization route is build_uq itself, kept under its old name.
build_uq_bidiag = build_uq


def variance_diagonal(uq):
    """Diagonal of the rank-k posterior covariance (solution variances)."""
    quad = np.einsum("ij,ij->i", uq.Z @ uq.Delta, uq.Z)
    return uq.sigma2 * (1.0 / uq.reg - quad)


def covariance_sum(uq):
    """Sum of all entries of the rank-k posterior covariance."""
    s = uq.Z.sum(axis=0)
    n = uq.Z.shape[0]
    return float(uq.sigma2 * (n / uq.reg - s @ uq.Delta @ s))


def oracle_posterior(matrix, sigma2, reg):
    """Dense posterior covariance sigma2 * (reg*I + A^T A)^{-1} (test oracle)."""
    matrix = finite_matrix(matrix, "matrix")
    n = matrix.shape[1]
    if n > 200:
        raise ValueError("dense oracle limited to n <= 200")
    return sigma2 * np.linalg.inv(reg * np.eye(n) + matrix.T @ matrix)
