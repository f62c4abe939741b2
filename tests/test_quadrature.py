"""The shared quadrature rules: Gauss-Legendre rules and the binomial series."""

import math

import mpmath
import numpy as np
import pytest

from kplane.operators import _series
from kplane.quadrature import binomial, gauss_legendre, gl01

EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("n", [8, 12, 24, 32, 48])
def test_gauss_legendre_nodes_round_once(n):
    # the rule's exact sums, taken in rational arithmetic on the float nodes
    # and weights: int_0^1 x^j dx = 1/(j+1) to 2e-16 for j <= 8 and for the
    # x^10 that numpy's 48-node leggauss read 1.8e-14 off
    from fractions import Fraction

    x, w = gl01(n)
    xs, ws = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in w]
    for j in [*range(9), 10]:
        total = sum(wi * xi**j for xi, wi in zip(xs, ws))
        assert abs(float(total * (j + 1) - 1)) <= 2e-16, j
    # on [-1, 1] the nodes are symmetric and the weights sum to 2
    xm, wm = gauss_legendre(n)
    assert np.array_equal(xm, -xm[::-1]) and np.array_equal(wm, wm[::-1])
    assert abs(math.fsum(wm) - 2.0) <= 4e-16
    assert not x.flags.writeable


@pytest.mark.parametrize(
    "a",
    [(d - 3) / 2 for d in range(2, 14)] + [(k - 2) / 2 for k in range(1, 10)] + [1.3, 2.7],
)
def test_binomial_matches_mpmath(a):
    # the exponents of the flow's layer kernel, (d - 3)/2, of T's series,
    # (k - 2)/2, and two of the L^p tails' p. Each step of the recurrence
    # rounds three times, so c_j may be off by 1.5 j eps relative; against
    # 40-digit mpmath it is within j eps for j < 40 (at most 0.24 j eps
    # here), and exactly 0 where the series ends
    c = binomial(a, 40)
    assert len(c) == 40 and c[0] == 1.0
    with mpmath.workdps(40):
        for j in range(40):
            exact = mpmath.binomial(a, j) * (-1) ** j
            if exact == 0:
                assert c[j] == 0.0, j
            else:
                assert abs(float(mpmath.mpf(float(c[j])) / exact - 1)) <= j * EPS, j
    assert len(binomial(a, 0)) == 0


@pytest.mark.parametrize("x_max", [0.01, 1.0 / 64.0])
@pytest.mark.parametrize("k", range(1, 10))
def test_t_series_omits_terms_below_a_quarter_ulp(k, x_max):
    # T's series of (1 - x)^((k-2)/2) stops before the first term past
    # l = (k-2)/2 whose bound on [0, x_max] is below eps/4; for even k that
    # term is 0
    c, m = _series(k, x_max)
    n = len(c)
    beta = (k - 2) / 2.0
    full = binomial(beta, n + 1)
    assert np.array_equal(c, full[:n])
    assert np.array_equal(m, k - 2.0 * np.arange(n))
    assert n > beta
    assert abs(full[n]) * x_max**n <= EPS / 4
    if k % 2 == 0:
        assert full[n] == 0.0 and n == k // 2
    assert not c.flags.writeable and not m.flags.writeable
