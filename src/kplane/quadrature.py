"""The quadrature rules that the functionals, T and the flow step share.

Gauss-Legendre rules rounded once, the Bernstein-ellipse order rule that
picks the fewest nodes a piece needs, graded panels, the batched sweep of
(piece, level) pairs, Horner's rule and the binomial series of (1 - x)^a.
Each is written here once; profiles, operators, flow and mc take their rules
from this module. It needs numpy and the standard library only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "GL_MAX",
    "LOG_EPS",
    "ZERO_REACH",
    "RATE_REACH",
    "PAIR_BLOCK",
    "gauss_legendre",
    "gl01",
    "gl_order",
    "graded_cuts",
    "pair_blocks",
    "horner",
    "binomial",
]


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int, lo: float = -1.0, hi: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre nodes and weights on [lo, hi], each rounded once.

    numpy's leggauss leaves nodes and weights a few ulps off: mapped to
    [0, 1], its 8- and 48-node rules read int_0^1 x^10 dx 3.2e-15 and 1.8e-14
    off. Here its nodes take a Newton step on P_n in np.longdouble, and the
    weights and the map to [lo, hi] are formed there too, so each value
    rounds to float once.
    The arrays are cached per (n, lo, hi) and read-only.
    """

    def legendre(x):  # (P_n(x), P_n'(x)) by the three-term recurrence
        prev, cur = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur, n * (x * cur - prev) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    pn, dpn = legendre(x)
    x -= pn / dpn  # one step from a float start is converged in longdouble
    _, dpn = legendre(x)
    half = (np.longdouble(hi) - np.longdouble(lo)) / 2
    nodes = (np.longdouble(lo) + half * (x + 1)).astype(float)
    weights = (half * 2 / ((1 - x * x) * dpn * dpn)).astype(float)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], reused by every piecewise quadrature."""
    return gauss_legendre(n, 0.0, 1.0)


# The order rule. The n-node Gauss-Legendre rule on [-1, 1] misses an
# integrand analytic inside the Bernstein ellipse of radius rho by
# O(rho^-2n) (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?",
# 2008), and misses e^(c x) by kappa_n c^2n,
# kappa_n = 2^(2n+1) n!^4 / ((2n+1) (2n)!^3). A piece has two such scales:
# a singular point (a zero of a non-integer power, a pole) a relative
# distance delta beyond the piece's nearer end, whose ellipse has
# log rho = arccosh(1 + 2 delta); and the rate c of an exponential factor
# over the half-width. n nodes read a piece when both bounds sit below
# e^-LOG_EPS of its scale. Pieces that GL_MAX nodes cannot read are cut
# into panels that they can (graded_cuts).
GL_MAX = 12
LOG_EPS = 39.0


def _log_gauss_constant(n: int) -> float:
    """log kappa_n: the n-node rule on [-1, 1] misses f by kappa_n f^(2n)(xi)."""
    return (
        (2 * n + 1) * math.log(2.0) + 4 * math.lgamma(n + 1)
        - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)
    )


# for n = 1 .. GL_MAX nodes: the largest 1/delta and the largest c they
# read, both increasing in n
ZERO_REACH = np.array([
    2.0 / (math.cosh(LOG_EPS / (2 * n)) - 1.0) for n in range(1, GL_MAX + 1)
])
RATE_REACH = np.array([
    math.exp(-(LOG_EPS + _log_gauss_constant(n)) / (2 * n)) for n in range(1, GL_MAX + 1)
])
ZERO_REACH.flags.writeable = RATE_REACH.flags.writeable = False


def gl_order(inv_delta, rate, extra: int = 0):
    """Fewest nodes that read pieces with 1/delta <= inv_delta and c <= rate.

    extra nodes go to a polynomial factor of degree <= 2 extra, whose
    derivatives take that many orders off the rate bound. Arrays take one
    order per entry, GL_MAX where no rule reads (their caller has cut such
    panels below e^-LOG_EPS of their segment). A scalar caller has cut its
    pieces so that GL_MAX nodes reach them, and one that they do not reach
    raises ValueError.
    """
    n = 1 + np.maximum(ZERO_REACH.searchsorted(inv_delta), extra + RATE_REACH.searchsorted(rate))
    if n.ndim:
        return np.minimum(n, GL_MAX)
    if n > GL_MAX:
        raise ValueError(
            f"no Gauss rule up to {GL_MAX} nodes reads 1/delta={inv_delta}, c={rate}"
        )
    return int(n)


def graded_cuts(k: int, toward_lo: int, toward_hi: int) -> np.ndarray:
    """Panel ends on [0, 1]: k equal panels, the first halved toward_lo times
    toward 0 and the last toward_hi times toward 1."""
    return np.unique(np.concatenate([
        np.ldexp(1.0 / k, -np.arange(toward_lo, 0, -1)),
        np.arange(k + 1) / k,
        1.0 - np.ldexp(1.0 / k, -np.arange(1, toward_hi + 1)),
    ]))


# node evaluations of (piece, level) crossing pairs per batch; more are swept
# in blocks of levels
PAIR_BLOCK = 1 << 15


def pair_blocks(first: np.ndarray, stop: np.ndarray, n_levels: int, per_pair: int = 1):
    """(piece, level) index pairs of the runs first[j] .. stop[j] - 1, in blocks.

    Each piece meets one contiguous run of the sorted levels, and each pair
    costs per_pair node evaluations. Up to PAIR_BLOCK evaluations come in
    one batch; more come in blocks of levels that keep each batch at about
    PAIR_BLOCK.
    """
    total = int(np.maximum(stop - first, 0).sum())
    block = max(PAIR_BLOCK // per_pair, 1)
    blocks = [(first, stop)]
    if total > block:
        live = stop > first
        per_level = np.cumsum(
            np.bincount(first, weights=live, minlength=n_levels + 1)
            - np.bincount(stop, weights=live, minlength=n_levels + 1)
        )[:n_levels]
        edges = np.searchsorted(
            np.cumsum(per_level), np.arange(block, total, block), side="left"
        )
        blocks = (
            (np.maximum(first, b0), np.minimum(stop, b1))
            for b0, b1 in zip(np.r_[0, edges], np.r_[edges, n_levels])
        )
    for start, end in blocks:
        n = end - start
        live = (n > 0).nonzero()[0]
        if len(live):
            n = n[live]
            ends = n.cumsum()
            yield live.repeat(n), np.arange(ends[-1]) + (start[live] - (ends - n)).repeat(n)


def horner(coef, x: np.ndarray) -> np.ndarray:
    """sum_n coef[n] x^n, lowest power first, by Horner in one array.

    The coefficients may be arrays that broadcast against x.
    """
    acc = np.empty(np.broadcast(coef[-1], x).shape)
    acc[...] = coef[-1]
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def binomial(a: float, n: int) -> np.ndarray:
    """The first n coefficients c_j = C(a, j) (-1)^j of (1 - x)^a = sum_j c_j x^j.

    By c_0 = 1, c_j = c_(j-1) (j - 1 - a) / j: each step rounds three times
    (difference, product, quotient), so c_j is within 1.5 j eps of its value,
    relative. For an integer a >= 0 the coefficients past j = a are exactly 0.
    """
    c = [1.0]
    for j in range(1, n):
        c.append(c[-1] * (j - 1 - a) / j)
    return np.array(c[:n])
