"""Measurement matrices: the deterministic polynomial (DeVore-style) binary
construction with provably low coherence, plus standard test fixtures.

The binary construction indexes rows by pairs ``(x, y)`` over the field of a
prime ``p`` (row-major) and columns by polynomials of degree at most ``r``
with coefficients mod ``p``, ordered lexicographically with the constant
coefficient varying fastest.  An entry is 1 exactly when the polynomial's
graph passes through the point, so every column holds exactly ``p`` ones and
two distinct columns share at most ``r`` of them.  After normalizing columns
by ``1/sqrt(p)`` the mutual coherence is therefore at most ``r/p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "is_prime",
    "next_prime",
    "devore_threshold",
    "devore_min_prime",
    "DeVoreParams",
    "devore_matrix",
    "fixture_matrix",
    "coherence",
]

_MAX_ENTRIES = 2**28  # a DeVore matrix's p^2 * n entries: 2 GiB of floats


def is_prime(q: int) -> bool:
    q = int(q)
    return q >= 2 and all(q % f for f in range(2, math.isqrt(q) + 1))


def next_prime(q: int) -> int:
    """Smallest prime strictly greater than ``q``."""
    p = int(q) + 1
    while not is_prime(p):
        p += 1
    return p


def devore_threshold(t: float, k: int, delta: float, n: int, r: int):
    """The two competing lower bounds on the prime: the RIP-order term
    ``(ceil(t*k) - 1) * r / delta`` and the dimension term ``n^(1/(r+1))``."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (0 < t * k * r / delta < math.inf and k >= 1 and 1 <= n <= _MAX_ENTRIES and r >= 1):  # NaN refused
        raise ValueError(f"t, k, n, r must be positive, t*k*r/delta finite and n at most {_MAX_ENTRIES}, "
                         f"got t={t}, k={k}, n={n}, r={r}")
    order = math.ceil(t * k)
    rip_term = (order - 1) * r / delta
    if rip_term > math.isqrt(_MAX_ENTRIES):  # a prime above it has p^2 past the size cap; bounds the prime search
        raise ValueError(f"the RIP-order term (ceil(t*k) - 1)*r/delta = {rip_term:g} is past "
                         f"{math.isqrt(_MAX_ENTRIES)}, got t={t}, k={k}, delta={delta}, r={r}")
    dim_term = n ** (1.0 / (r + 1))
    return rip_term, dim_term


def devore_min_prime(t: float, k: int, delta: float, n: int, r: int, strict: bool = False) -> int:
    """Smallest prime meeting both threshold terms.

    By default the prime may equal the threshold; with ``strict=True`` an
    exactly-prime threshold is bumped to the next prime.  The two readings
    only differ when the threshold lands exactly on a prime.
    """
    rip_term, dim_term = devore_threshold(t, k, delta, n, r)
    thr = max(rip_term, dim_term)
    q = math.ceil(thr - 1e-9)
    p = q if is_prime(q) else next_prime(q)
    if strict and abs(p - thr) < 1e-9:
        p = next_prime(p)
    return p


@dataclass(frozen=True)
class DeVoreParams:
    """Prime ``p``, degree bound ``r``, and optional column truncation."""

    p: int
    r: int
    n_truncate: Optional[int] = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        cols = self.p ** min(self.r + 1, 64)  # p^(r+1) for any prime the cap admits: p^64 is past it
        if self.p * self.p * (cols if self.n_truncate is None else self.n_truncate) > _MAX_ENTRIES:
            raise ValueError(f"a DeVore matrix with p={self.p}, r={self.r}, n_truncate={self.n_truncate} "
                             f"has more than {_MAX_ENTRIES} entries")
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n_truncate is not None and not 1 <= self.n_truncate <= cols:
            raise ValueError(f"n_truncate={self.n_truncate} outside 1..{cols}")

    @property
    def shape(self):
        n = self.p ** (self.r + 1) if self.n_truncate is None else self.n_truncate
        return self.p * self.p, n


def devore_matrix(params: DeVoreParams, normalize: bool = True) -> np.ndarray:
    """Dense binary measurement matrix of shape ``p^2 x min(n_truncate, p^(r+1))``.

    With ``normalize=True`` every column is scaled to unit Euclidean norm.
    The construction is deterministic: fixed parameters give a byte-identical
    matrix.
    """
    p, r = params.p, params.r
    m, n = params.shape
    cols = np.arange(n, dtype=np.int64)
    d = next(d for d in range(1, r + 2) if p**d >= n)  # the columns' base-p digits; higher coefficients are 0
    digits = [(cols // p**i) % p for i in range(d)]  # digits[i] = coefficient of x^i
    M = np.zeros((m, n))
    one = 1.0 / math.sqrt(p) if normalize else 1.0
    for x in range(p):
        val = digits[d - 1].copy()
        for i in range(d - 2, -1, -1):
            val = (val * x + digits[i]) % p
        M[x * p + val, cols] = one
    return M


def fixture_matrix(kind: str, m: int, n: int, seed: int = 0) -> np.ndarray:
    """Standard fixtures: ``identity``, unit-column ``gaussian``, or a
    gaussian with its first column duplicated into the second."""
    if m < 1 or n < 1:
        raise ValueError(f"invalid dimensions {m}x{n}")
    if kind == "identity":
        return np.eye(m, n)
    if kind == "gaussian":
        A = np.random.default_rng(seed).standard_normal((m, n))
        return A / np.linalg.norm(A, axis=0)
    if kind == "duplicated_column":
        if n < 2:
            raise ValueError("duplicated_column needs at least 2 columns")
        A = fixture_matrix("gaussian", m, n, seed)
        A[:, 1] = A[:, 0]
        return A
    raise ValueError(f"unknown matrix kind {kind!r}")


def coherence(A) -> float:
    """Largest absolute inner product between distinct normalized columns."""
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ValueError("matrix has a zero column")
    G = (A / norms).T @ (A / norms)
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G)))
