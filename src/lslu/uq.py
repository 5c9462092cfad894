"""Low-rank posterior covariance approximation from the Krylov factors.

For the Gaussian linear model with noise variance sigma2 and posterior
covariance sigma2 * (reg*I + A^T A)^{-1}, the factorization after k
iterations yields the low-rank surrogate A^T A ~= Z diag(spectrum) Z^T.
The Woodbury identity then gives the rank-k posterior representation

    Gamma_k = sigma2 * (I/reg - Z Delta Z^T),

whose diagonal (solution variances) and total sum are cheap to read
off.  Because the basis is not orthonormal, Delta is a full (but only
k-by-k) symmetric matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hessenberg import check_maxiter

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
    factor = scipy.linalg.cho_factor((M + M.T) / 2.0)
    Delta = scipy.linalg.cho_solve(factor, np.eye(M.shape[0])) / reg
    return (Delta + Delta.T) / 2.0


def _assemble(L_mat, D_mat, W_mat, sigma2, reg):
    # keep only as many columns as the residual-basis Gram matrix supports;
    # the loop leaves the Gram matrix of the k it settles on in gram
    k = L_mat.shape[1]
    while k >= 1:
        gram = D_mat[:, :k].T @ D_mat[:, :k]
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
        if eigs[0] > 0 and eigs[-1] / eigs[0] <= GRAM_COND_LIMIT:
            break
        k -= 1
    if k < 1:
        raise ValueError("residual basis Gram matrix is numerically singular")
    if k < L_mat.shape[1]:
        warnings.warn(f"ill-conditioned Gram matrix; truncating rank to {k}",
                      RuntimeWarning)

    W = W_mat[:k, :k]
    core = W @ np.linalg.solve((gram + gram.T) / 2.0, W.T)
    core = (core + core.T) / 2.0
    vals, vecs = np.linalg.eigh(core)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > max(vals[0], 0.0) * 1e-14
    if not np.any(keep):
        raise ValueError("low-rank spectrum collapsed to zero")
    if not np.all(keep):
        vals, vecs = vals[keep], vecs[:, keep]
    Z = L_mat[:, :k] @ vecs
    Delta = woodbury_delta(Z, vals, reg)
    return UqApprox(Z=Z, spectrum=vals, Delta=Delta, sigma2=float(sigma2),
                    reg=float(reg), k=int(vals.shape[0]))


def check_noise_model(sigma2, reg):
    """Reject a noise variance sigma2 that is not finite and >= 0, or a
    regularization reg that is not finite and > 0, naming the input."""
    for name, value in (("sigma2", sigma2), ("reg", reg)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2!r}")
    if reg <= 0:
        raise ValueError("reg must be positive")


def build_uq(state, sigma2, reg, k=None):
    """Posterior pieces from either factorization state, through
    A^T A ~= S_k C_k (R_k^T R_k)^{-1} C_k^T S_k^T with the first k columns
    of its solution and residual bases and its k-by-k coupling (W_k or
    B_k^T).  k is an integer >= 1, capped at (and defaulting to) the
    largest rank the state supports."""
    check_noise_model(sigma2, reg)
    if k is not None:
        check_maxiter(k, "k")
    if state.k < 1:
        raise ValueError("state has no completed iterations")
    kmax = min(state.k, state.residual_count)
    k = kmax if k is None else min(k, kmax)
    return _assemble(state.solution_basis[:, :k], state.residual_basis[:, :k],
                     state.coupling[:k, :k].copy(), sigma2, reg)


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
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[1]
    if n > 200:
        raise ValueError("dense oracle limited to n <= 200")
    return sigma2 * np.linalg.inv(reg * np.eye(n) + matrix.T @ matrix)
