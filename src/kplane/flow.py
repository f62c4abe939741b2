"""Competing-symmetries iteration (Carlen and Loss 1990) toward the extremizer.

One step is V S: embed a radial profile g in R^d, apply the inversion symmetry
S, and take the symmetric decreasing rearrangement V back to a radial profile.
V reads only the distribution function of S g, and for radial g that is a
one-dimensional integral over g's own variable (the layer-cake identity of the
inversion image): with m = k + 1 and phi(sigma) = sigma^m g(sigma),

    d(t) = 2 |S^{d-2}| int_0^inf W((phi(sigma)/t)^{1/m}) sigma^-2 dsigma,
    W(A) = int_1^A (y^2 - 1)^((d-3)/2) y^2 dy  for A > 1, 0 otherwise.

The step evaluates this exactly for g's canonical reading (linear in log r,
constant head, power tail) and inverts it at the output radii, so it builds no
field. The iteration keeps the L^p norm (both maps are measure or norm
preserving up to discretization) and drives any admissible start toward the
extremizer C (1 + r^2)^(-(k+1)/2) with C fixed by the initial norm; the
functional ratio is nondecreasing along the way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import logsumexp

from .errors import TailDivergenceError
from .params import TransformParams, sphere_area
from .profiles import (
    RadialProfile,
    default_radial_grid,
    lebesgue_measure,
    lp_distance,
    lp_norm,
)
from .operators import (
    ExtremizerSpec,
    _unbounded_image_warning,
    extremizer_profile,
    functional_ratio,
)
from .quadrature import binomial, gl01, horner, pair_blocks

__all__ = [
    "ConvergenceReport",
    "competing_step",
    "competing_iterate",
]


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Trace of a competing-symmetries run.

    distances, ratios, and norms have one entry per recorded state, starting
    with the initial profile (index 0) and then one per iteration performed.
    distances are relative L^p distances to the matched extremizer C h.
    warnings lists conditions of the run a reader should know about, such as
    a start whose inversion image is unbounded near the origin.
    """

    iterates_kept: list[RadialProfile]
    distances: np.ndarray
    ratios: np.ndarray
    norms: np.ndarray
    converged: bool
    final_profile: RadialProfile
    n_iters: int
    target: RadialProfile = dc_field(repr=False, default=None)  # type: ignore[assignment]
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# The layer-cake identity of the inversion image
# ---------------------------------------------------------------------------

# Even d: W's A^-2 series is used where A >= _A_SPLIT, cut after the A^-28
# term (4^-28 ~ 1e-17 relative there); below the split W is read in closed form.
_A_SPLIT = 4.0
_SERIES_LOWEST = -28
# Even d >= 4: near A = 1, W is read from its series in A - 1, below a cut of
# at most _NEAR_ONE set per d in _LayerKernel, and after at most _NEAR_TERMS
# terms (the terms fall as ((A - 1)/2)^n, 4^-30 ~ 1e-18)
_NEAR_ONE = 0.5
_NEAR_TERMS = 30
# Gauss rules on [0, 1]
_GL12_X, _GL12_W = gl01(12)  # moments of whole pieces
_GL8_X, _GL8_W = gl01(8)  # crossed pieces and the band below the split
_GL32_X, _GL32_W = gl01(32)  # head and tail below the split
_GL48_X, _GL48_W = gl01(48)  # the peak kernel at its fit nodes
# a piece whose interior maximum rises at most this much in log phi above its
# higher end is read through the peak kernel at the levels above that end
_PEAK_LOG_RISE = 0.25
_PEAK_FIT_NODES = 20
# the kernel is fitted up to the least _PEAK_LOG_RISE 4^-j at or above the
# engine's largest rise, j <= _PEAK_BUCKETS, once per process (_peak_kernel)
_PEAK_BUCKETS = 20
# (peak, level) entries of one dense tile of the peak read: its power matrix,
# one row per coefficient, stays in cache
_PEAK_TILE = 8192
# sub-piece end levels at which d is tabulated to start the inversion
_TABLE_LEVELS = 256
# even d: band pieces adjacent in lo order, read together on one Chebyshev
# rule in phi^(1/m) when they sit far enough above A = 1 (see _band)
_BAND_BLOCK = 32
_BLOCK_NODES = 12
_BLOCK_APART = 2.0


class _LayerKernel:
    """W(A) and W'(A) A at A >= 1, read from A or from la = log A.

    W'(y) y = y^d (1 - y^-2)^((d-3)/2) = sum_n w_n y^(j_n), j_n = d - 2n, so
    W = sum_{j_n != 0} w_n A^(j_n) / j_n + b log A + c, b the j = 0 weight.
    For odd d the sum is finite; for even d it is the binomial series, cut
    at A^-28. power reads these terms above the split (everywhere for odd
    d), and so do the whole-piece moments of _InversionLayerCake.

    A single A is read in x = A - 1 (see read). W'(1 + x) =
    x^((d-3)/2) (2 + x)^((d-3)/2) (1 + x)^2, integrated term by term, gives
    W = x^((d-1)/2) sum_n b_n x^n / (n + (d-1)/2),
    sum_n b_n x^n = (2 + x)^((d-3)/2) (1 + x)^2. For odd d that sum has
    (d+3)/2 terms, all positive, so it reads W at every A with no
    cancellation. For even d it is the binomial series, cut after its terms
    fall below 1e-18 at x = near_cut = min(_NEAR_ONE, 0.1^(2/(d-2))), and
    above the cut W is P(A) sqrt(A^2 - 1) + e arcosh A, P of degree d - 1.
    Near A = 1 those two terms are of size sqrt(A - 1) while
    W ~ (A - 1)^((d-1)/2), so the closed form is off by about
    eps (A - 1)^(-(d-2)/2) relative: against 40-digit mpmath it reads 1e-15
    at A - 1 = 0.048, 0.15 and 0.45 for d = 4, 6 and 8. For d = 2 both terms
    are positive and no series is needed. c makes the cut A^-2 series agree
    with the closed form at the split.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self.odd = bool(d % 2)
        half = (d - 3) / 2.0
        n_terms = (d - 1) // 2 if self.odd else (d - _SERIES_LOWEST) // 2 + 1
        # (1 - y^-2)^((d-3)/2) by its binomial series in y^-2
        w = self.w = binomial(half, n_terms)
        self.j = d - 2.0 * np.arange(n_terms)
        nonzero = self.j != 0
        self.a = np.where(nonzero, w / np.where(nonzero, self.j, 1.0), 0.0)
        self.b = float(w[~nonzero].sum())
        # near A = 1: the binomial series of (2 + x)^((d-3)/2), times (1 + x)^2
        if self.odd:  # a polynomial, read at every A
            n_near = (d + 3) // 2
        elif d == 2:  # two positive terms: the closed form needs no series
            self.near_cut, n_near = 0.0, 1
        else:
            self.near_cut = min(_NEAR_ONE, 0.1 ** (2.0 / (d - 2)))
            # the terms fall as (x/2)^n: keep those above 1e-18 at the cut
            n_near = min(_NEAR_TERMS, math.ceil(-18.0 / math.log10(self.near_cut / 2.0)))
        # (2 + x)^((d-3)/2) = 2^((d-3)/2) (1 - (-x/2))^((d-3)/2)
        root2 = binomial(half, n_near) * (-0.5) ** np.arange(n_near) * 2.0**half
        self.near = np.convolve(root2, [1.0, 2.0, 1.0])[:n_near] / (
            np.arange(n_near) + (d - 1) / 2.0
        )
        if self.odd:
            self.c = -float(self.a.sum())
            return
        # P' (y^2 - 1) + P y + e = (y^2 - 1)^((d-2)/2) y^2, solved from the top
        # coefficient down: k p_{k-1} - (k+1) p_{k+1} = rhs_k, e = rhs_0 + p_1
        rhs = np.zeros(d + 1)
        rhs[2:] = np.polynomial.polynomial.polypow([-1.0, 0.0, 1.0], (d - 2) // 2)
        p = np.zeros(d + 2)
        for k in range(d, 0, -1):
            p[k - 1] = (rhs[k] + (k + 1) * p[k + 1]) / k
        self.poly = p[:d]
        self.arcosh = rhs[0] + p[1]
        ls = np.array(math.log(_A_SPLIT))
        self.c = 0.0
        self.c = float(self.read(ls)[0] - self._series(ls))

    def _series(self, la: np.ndarray) -> np.ndarray:
        return np.exp(la[..., None] * self.j) @ self.a + self.b * la + self.c

    def read(self, la: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W(A), W'(A) A) at A = e^la, la > 0, from x = expm1(la)."""
        x = np.expm1(la)
        return self._read(1.0 + x, x)

    def from_a(self, big_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W(A), W'(A) A) from A >= 1 itself; x = A - 1 is exact for A <= 2."""
        return self._read(big_a, np.maximum(big_a - 1.0, 1e-300))

    def _read(self, big_a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W, W'A) at A = big_a = 1 + x: odd d by the series in x, even d by the
        closed form and, below near_cut, the series."""
        slope = big_a * big_a
        slope *= big_a
        if self.odd:
            w = horner(self.near, x)
            if self.d == 3:
                w *= x
            else:
                w *= x ** ((self.d - 1) // 2)
                slope *= (x * (2.0 + x)) ** ((self.d - 3) // 2)
            return w, slope
        root = np.sqrt(x * (big_a + 1.0))
        w = horner(self.poly, big_a)
        w *= root
        w += self.arcosh * np.log1p(x + root)
        near = x < self.near_cut
        if np.any(near):
            xn = x[near]
            w[near] = horner(self.near, xn) * np.sqrt(xn) * xn ** ((self.d - 1) // 2)
        slope *= root ** (self.d - 3)
        return w, slope

    def power(self, s: float, llo, lhi, lref):
        """A_ref^-s int_lo^hi (W(A), W'(A) A) A^(s-1) dA for 1 <= lo <= hi <= inf.

        Arguments are logs; lhi may be inf when the integrals converge there.
        The series applies above the split (everywhere for odd d); below it,
        even d uses a 32-node rule in x with A = lo + (hi - lo) x^2, which
        absorbs the square-root behaviour of W at A = 1.
        """
        llo, lhi, lref = np.broadcast_arrays(*map(np.asarray, (llo, lhi, lref)))
        val = np.zeros(llo.shape)
        der = np.zeros(llo.shape)
        cut = llo if self.odd else np.maximum(llo, math.log(_A_SPLIT))
        top = lhi > cut
        if np.any(top):
            c0, c1, r = cut[top], lhi[top], lref[top]
            terms = _power_integral(self.j + s, c0, c1, r, s)
            val[top] = (
                terms @ self.a
                + self.c * _power_integral(np.array([s]), c0, c1, r, s)[:, 0]
                + self.b * _log_power_integral(s, c0, c1, r)
            )
            der[top] = terms @ self.w
        if not self.odd:
            band = llo < np.minimum(lhi, cut)
            if np.any(band):
                lo_m1 = np.expm1(llo[band])[:, None]
                span = np.expm1(np.minimum(lhi, cut)[band])[:, None] - lo_m1
                la = np.log1p(lo_m1 + span * _GL32_X**2)
                weight = (
                    _GL32_W * 2.0 * span * _GL32_X
                    * np.exp((s - 1.0) * la - s * lref[band][:, None])
                )
                w_val, w_der = self.read(la)
                val[band] += np.einsum("ij,ij->i", weight, w_val)
                der[band] += np.einsum("ij,ij->i", weight, w_der)
        return val, der


def _psi(y: np.ndarray) -> np.ndarray:
    """y - log(1 + y), by its series where the difference cancels."""
    small = np.abs(y) < 0.1
    ys = np.where(small, y, 0.0)
    series = horner((-1.0) ** np.arange(16) / np.arange(2, 18), ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = y - np.log1p(y)
    return np.where(small, series * ys**2, direct)


def _psi_inverse(w: np.ndarray) -> np.ndarray:
    """The y in (-1, inf) with sign(y) sqrt(2 psi(y)) = w, by Newton."""
    y = w + w**2 / 3.0 + w**3 / 36.0
    for _ in range(50):
        y = np.maximum(y, -1.0 + 1e-15)
        q = np.sign(y) * np.sqrt(2.0 * _psi(y))
        with np.errstate(divide="ignore", invalid="ignore"):
            dq = np.where(np.abs(y) > 1e-8, y / ((1.0 + y) * q), 1.0 - 2.0 * y / 3.0)
        step = (q - w) / dq
        y = y - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(y))):
            break
    return y


class _PeakKernel:
    """K(L) = int_{psi(y) < L} W(e^((L - psi(y))/m)) e^(y/m) dy for 0 <= L <= lam_max.

    On a piece of g with slope beta < 0 in u, phi = phi_c e^(-psi(y)) exactly,
    y = m (u_c - u), with u_c where g = -beta/m. When the maximum u_c lies
    inside the piece and t lies above both piece ends, the piece contributes
    e^(-u_c)/m K(log(phi_c/t)) to the layer-cake integral, a function of one
    variable that this kernel fits once. K = L^(d/2) P(sqrt L) with P smooth;
    P is interpolated at Chebyshev points of sqrt L from a 48-node rule in
    theta, y = y_mid + y_half sin(theta), which absorbs the endpoint zeros.

    The fit leaves power-basis coefficients in P's own variable
    x = 2 q / q_max - 1, q = sqrt L, lowest power first, where they stay near
    the size of P (powers of q would grow as q_max^-n). coef has two rows:
    P/m and R/2, R = d P + q P' = d P + (x + 1) dP/dx. A read builds the
    powers of x once and takes both rows in one product; then
    K/m = q^(d-2) L P/m and dK/dL = q^(d-2) R/2. The fit depends on (d, m,
    lam_max) alone; _peak_kernel keeps one per rise bucket.
    """

    def __init__(self, ker: _LayerKernel, m: int, lam_max: float) -> None:
        self.d = ker.d
        self.q_max = math.sqrt(lam_max)
        n = _PEAK_FIT_NODES
        x = np.cos(math.pi * (np.arange(n) + 0.5) / n)
        q = 0.5 * self.q_max * (x + 1.0)
        y_hi = _psi_inverse(math.sqrt(2.0) * q)
        y_lo = _psi_inverse(-math.sqrt(2.0) * q)
        mid, half = 0.5 * (y_hi + y_lo), 0.5 * (y_hi - y_lo)
        theta = math.pi * (_GL48_X - 0.5)
        y = mid[:, None] + half[:, None] * np.sin(theta)
        la = np.maximum((q[:, None] ** 2 - _psi(y)) / m, 1e-300)
        weight = math.pi * _GL48_W * half[:, None] * np.cos(theta) * np.exp(y / m)
        k_val = np.einsum("ij,ij->i", weight, ker.read(la)[0])
        cheb = np.polynomial.chebyshev.chebfit(x, k_val / q**self.d, n - 1)
        # keep the terms above rounding, at least two (a read takes x from
        # the second row of its powers): few on the short intervals of
        # ordinary grids, where P is nearly linear
        keep = int(np.flatnonzero(np.abs(cheb) > 1e-15 * np.abs(cheb).max())[-1]) + 1
        p = np.polynomial.chebyshev.cheb2poly(cheb[: max(keep, 2)])
        power = np.arange(len(p))
        r = (self.d + power) * p
        r[:-1] += power[1:] * p[1:]
        self.coef = np.array([p / m, 0.5 * r])

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        """(K/m, dK/dL) at lam in [0, lam_max], stacked on a new first axis.

        A read at lam = 0 adds nothing: K and, for d = 2 too, dK/dL read 0.
        """
        q = np.sqrt(lam)
        powers = np.empty((self.coef.shape[1],) + lam.shape)
        powers[0] = 1.0
        np.multiply(q, 2.0 / self.q_max, out=powers[1])
        powers[1] -= 1.0
        for k in range(2, len(powers)):
            np.multiply(powers[k - 1], powers[1], out=powers[k])
        out = (self.coef @ powers.reshape(len(powers), -1)).reshape((2,) + lam.shape)
        out[0] *= lam
        if self.d == 2:
            out *= np.sign(q)
        else:
            out *= q if self.d == 3 else q ** (self.d - 2)
        return out


@functools.lru_cache(maxsize=16)
def _peak_kernel(d: int, m: int, lam_max: float) -> _PeakKernel:
    """The peak kernel of (d, m) up to lam_max, fitted once per process."""
    return _PeakKernel(_LayerKernel(d), m, lam_max)


def _rise_bucket(rise: float) -> float:
    """The least _PEAK_LOG_RISE 4^-j >= rise, j <= _PEAK_BUCKETS."""
    bucket = _PEAK_LOG_RISE
    for _ in range(_PEAK_BUCKETS):
        if bucket / 4.0 < rise:
            break
        bucket /= 4.0
    return bucket


def _power_integral(c: np.ndarray, llo, lhi, lref, s: float) -> np.ndarray:
    """e^(-s lref) int_{e^llo}^{e^lhi} A^(c-1) dA, one column per exponent c."""
    c = c[None, :]
    llo, lhi, lref = llo[:, None], lhi[:, None], lref[:, None]
    base = np.exp(c * llo - s * lref)
    with np.errstate(invalid="ignore"):
        width = np.where(np.isinf(lhi), -1.0, np.expm1(c * (lhi - llo)))
        out = base * width / np.where(c == 0, 1.0, c)
    return np.where(c == 0, (lhi - llo) * np.exp(-s * lref), out)


def _log_power_integral(s: float, llo, lhi, lref) -> np.ndarray:
    """e^(-s lref) int_{e^llo}^{e^lhi} log(A) A^(s-1) dA, s != 0."""

    def antider(la):
        with np.errstate(invalid="ignore"):
            return np.where(
                np.isinf(la), 0.0, np.exp(s * (la - lref)) * (la / s - 1.0 / s**2)
            )

    return antider(lhi) - antider(llo)


def _bracket_mid(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Midpoints of log-level brackets; a one-sided bracket steps 2 past its end."""
    return np.where(np.isinf(lo), hi - 2.0, np.where(np.isinf(hi), lo + 2.0, 0.5 * (lo + hi)))


class _InversionLayerCake:
    """t -> (d(t), d'(t)) for S(embed g), exact for g's canonical reading.

    In u = log sigma a piece of g is g = g_a + beta (u - u_a), and
    phi = e^(m u) g has phi' = 0 where g = -beta/m, so each piece splits into
    at most two sub-pieces on which phi is monotone. For a level t a
    sub-piece lies below t (no contribution), crosses it once (a root and a
    Gauss rule on the part above), or lies above it. Above it W((phi/t)^(1/m))
    is a sum of powers t^(-j/m) phi^(j/m), so whole sub-pieces enter through
    per-piece moments int phi^(j/m) e^-u du, summed once over the sub-pieces
    sorted by their lower phi value (even d: only where A >= _A_SPLIT; the
    band between is integrated per (level, sub-piece) on one 8-node graded
    rule, or per block of sub-pieces far from A = 1). A piece with an
    interior maximum, at levels above both its ends, enters through the
    one-variable _PeakKernel instead of two crossings; those peaks are read
    in dense (peak, level) tiles, one power-matrix product each, and the
    kernel is fitted once per (d, m, rise bucket). The constant head and the
    power tail are closed form.
    d'(t) = -(2 |S^{d-2}| / (m t)) int W'(A) A over the same set, since
    W(1) = 0 drops the boundary term.
    """

    def __init__(self, g: RadialProfile, m: int) -> None:
        self.m = m
        self.pre = 2.0 * sphere_area(g.d - 1)
        ker = self.kernel = _LayerKernel(g.d)
        u, v = g.log_radii, g.values
        # sub-pieces, split where phi' = 0
        ua, ub, ga, gb = u[:-1], u[1:], v[:-1], v[1:]
        beta = (gb - ga) / (ub - ua)
        with np.errstate(divide="ignore", invalid="ignore"):
            uc = ua - 1.0 / m - ga / beta
        split = (beta < 0) & (uc > ua) & (uc < ub)
        gc = -beta[split] / m
        with np.errstate(divide="ignore"):
            # log phi at the ends of the whole pieces
            log_end = np.maximum(m * ua + np.log(ga), m * ub + np.log(gb))[split]
        ua = np.concatenate([ua, uc[split]])
        ub = np.concatenate([np.where(split, uc, ub), ub[split]])
        ga = np.concatenate([ga, gc])
        gb = np.concatenate([np.where(split, -beta / m, gb), gb[split]])
        beta = np.concatenate([beta, beta[split]])
        with np.errstate(divide="ignore"):
            lpa = m * ua + np.log(ga)
            lpb = m * ub + np.log(gb)
        # sub-pieces whose high end is the critical point (a maximum of phi)
        peaked = np.concatenate([split, np.ones(int(split.sum()), dtype=bool)])
        # the split pieces read through the peak kernel above their higher
        # end: log phi_c and that end's phi; their two halves cross only below
        log_peak = m * uc[split] + np.log(gc)
        kernel_read = log_peak - log_end <= _PEAK_LOG_RISE
        cap = np.full(len(ua), np.inf)
        cap[: len(split)][split] = np.where(kernel_read, np.exp(log_end), np.inf)
        cap[len(split) :] = cap[: len(split)][split]
        self.peak_weight = np.exp(-uc[split][kernel_read])
        self.peak_log = log_peak[kernel_read]
        self.peak_top = np.exp(log_peak[kernel_read])
        self.peak_end = np.exp(log_end[kernel_read])
        self.peak_kernel = (
            _peak_kernel(
                g.d, m, _rise_bucket(float(np.max(log_peak - log_end, where=kernel_read, initial=0.0)))
            )
            if np.any(kernel_read) else None
        )
        live = np.maximum(lpa, lpb) > -np.inf
        ua, ub, ga, gb, beta, lpa, lpb, peaked, cap = (
            x[live] for x in (ua, ub, ga, gb, beta, lpa, lpb, peaked, cap)
        )
        self.peaked = peaked
        self.cap = cap
        self.inc = lpb > lpa
        self.lo = np.exp(np.minimum(lpa, lpb))
        self.hi = np.exp(np.maximum(lpa, lpb))
        self.ua, self.du, self.ga, self.gb, self.beta = ua, ub - ua, ga, gb, beta
        self.phi_a = np.exp(lpa)
        self.phi_b = np.exp(lpb)

        # moments int phi^(j/m) e^-u du of whole sub-pieces: one row per
        # series power j >= 0, then int e^-u du, then (even d) int log(phi)
        # e^-u du. Rows of negative powers overflow for tiny phi and are
        # summed as logs; they only enter above the split, as (t/phi)^(|j|/m)
        uu = ua[:, None] + self.du[:, None] * _GL12_X
        with np.errstate(divide="ignore"):
            # g may underflow to 0 inside a piece whose lower end is 0; such
            # a piece (lo = 0) is never whole above a level
            lg = np.log(ga[:, None] + (gb - ga)[:, None] * _GL12_X)
        wd = self.du[:, None] * _GL12_W
        self.neg = ker.j < 0
        rows = [
            np.sum(wd * np.exp((j - 1.0) * uu + (j / m) * lg if j else -uu), axis=1)
            for j in ker.j[~self.neg]
        ]
        rows.append(np.exp(-ua) * -np.expm1(-self.du))
        if not ker.odd:
            rows.append(np.sum(wd * (m * uu + lg) * np.exp(-uu), axis=1))
        order = self.order = np.argsort(self.lo, kind="stable")
        self.lo_sorted = self.lo[order]
        moments = np.array(rows).reshape(len(rows), -1)[:, order]
        self.suffix = np.concatenate(
            [np.cumsum(moments[:, ::-1], axis=1)[:, ::-1], np.zeros((len(rows), 1))], axis=1
        )
        log_rows = np.array(
            [logsumexp((j - 1.0) * uu + (j / m) * lg, b=wd, axis=1) for j in ker.j[self.neg]]
        ).reshape(int(self.neg.sum()), len(ua))[:, order]
        self.log_suffix = np.concatenate(
            [
                np.logaddexp.accumulate(log_rows[:, ::-1], axis=1)[:, ::-1],
                np.full((len(log_rows), 1), -np.inf),
            ],
            axis=1,
        )
        # whole sub-pieces are read through moments above this multiple of t
        self.full_factor = 1.0 if ker.odd else _A_SPLIT**m

        if not ker.odd:
            # the band: whole sub-pieces read on fixed nodes, where A is
            # phi^(1/m) t^(-1/m): 8 nodes x^2-graded from the low end, which
            # absorb the square root of W at A = 1
            u_low = np.where(self.inc, ua, ub)[:, None]
            g_low = np.where(self.inc, ga, gb)[:, None]
            span = np.where(self.inc, self.du, -self.du)[:, None]
            step = span * _GL8_X**2
            uu = u_low + step
            with np.errstate(divide="ignore"):
                self.band_root = np.exp(uu + np.log(g_low + beta[:, None] * step) / m)
            self.band_weight = np.abs(span) * (2.0 * _GL8_X * _GL8_W) * np.exp(-uu)
            # blocks of _BAND_BLOCK pieces adjacent in lo order: the weights of
            # _BLOCK_NODES Chebyshev points in xi = phi^(1/m) integrate the
            # interpolant of any function of xi exactly against the pieces'
            # 8-node rules. A level reads a block through them when the block
            # lies _BLOCK_APART of its widths above xi = t^(1/m), A = 1, where
            # interpolating W(xi t^(-1/m)) errs below 1e-12
            n_blocks = len(order) // _BAND_BLOCK
            block = order[: n_blocks * _BAND_BLOCK].reshape(n_blocks, _BAND_BLOCK)
            xi_lo = self.lo[block[:, 0]] ** (1.0 / m)
            width = np.maximum(self.hi[block].max(axis=1) ** (1.0 / m) - xi_lo, 1e-15 * xi_lo)
            cheb = np.cos(math.pi * (np.arange(_BLOCK_NODES) + 0.5) / _BLOCK_NODES)
            bary = (-1.0) ** np.arange(_BLOCK_NODES) * np.sqrt(1.0 - cheb**2)
            atoms = self.band_root[block].reshape(n_blocks, 8 * _BAND_BLOCK)
            atoms = 2.0 * (atoms - xi_lo[:, None]) / width[:, None] - 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                basis = bary / (atoms[:, :, None] - cheb)
                basis /= basis.sum(axis=2, keepdims=True)
            self.block_nodes = xi_lo[:, None] + 0.5 * width[:, None] * (cheb + 1.0)
            self.block_weights = np.einsum(
                "ba,bak->bk",
                self.band_weight[block].reshape(n_blocks, 8 * _BAND_BLOCK),
                np.nan_to_num(basis),
            )
            key = xi_lo - _BLOCK_APART * width
            self.block_floor = np.minimum.accumulate(key[::-1])[::-1]

        # head (constant v_0 below r_0) and tail (v_N (r_N/r)^gamma beyond r_N)
        self.r0, self.rn = float(g.radii[0]), float(g.radii[-1])
        self.phi0 = v[0] * self.r0**m
        self.phin = v[-1] * self.rn**m
        self.kappa = (m - g.tail_exponent) / m
        if self.phin > 0 and self.kappa > 0 and g.d * self.kappa >= 1.0:
            raise TailDivergenceError(
                f"tail exponent {g.tail_exponent} gives an inversion image with "
                f"infinite super-level sets in R^{g.d} (need gamma > {m} (d-1)/d)"
            )
        # the levels that bracket the inversion: every sub-piece end, down to
        # 1e-100 of the largest (lower ones would only overflow d(t))
        ends = np.concatenate([self.lo, self.hi, [self.phi0, self.phin]])
        top = float(ends.max())
        self.levels = np.unique(ends[ends > 1e-100 * top])
        unbounded = self.phin > 0 and self.kappa > 0
        self.sup = math.inf if unbounded else top

    def __call__(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d(t), d'(t)) at positive levels t, any order."""
        ker, m = self.kernel, self.m
        t = np.asarray(t, dtype=float)
        order = t.argsort(kind="stable")
        ts = t[order]
        lt = np.log(ts)
        n = len(ts)
        # whole sub-pieces through the suffix sums of their moments
        at = self.lo_sorted.searchsorted(ts * self.full_factor, side="left")
        sums = self.suffix[:, at]
        j_pos, j_neg = ker.j[~self.neg], ker.j[self.neg]
        n_j = len(j_pos)
        # far below the profile's levels d(t) may overflow to inf; such a
        # level still brackets every target from below
        with np.errstate(over="ignore"):
            powers = np.concatenate(
                [
                    np.exp(-np.outer(j_pos, lt) / m) * sums[:n_j],
                    np.exp(self.log_suffix[:, at] - np.outer(j_neg, lt) / m),
                ]
            )
        val = ker.a @ powers + ker.c * sums[n_j]
        der = ker.w @ powers
        if not ker.odd:
            val += ker.b * (sums[n_j + 1] - lt * sums[n_j]) / m

        # crossed sub-pieces: the part above t, from the crossing outward
        first = ts.searchsorted(self.lo, side="right")
        stop = np.minimum(
            ts.searchsorted(self.hi, side="left"), ts.searchsorted(self.cap, side="right")
        )
        for piece, level in pair_blocks(first, stop, n, per_pair=len(_GL8_X)):
            v_add, d_add = self._crossed(piece, ts[level], lt[level])
            val += np.bincount(level, weights=v_add, minlength=n)
            der += np.bincount(level, weights=d_add, minlength=n)
        if self.peak_kernel is not None:
            self._peaks(ts, lt, val, der)
        if not ker.odd:
            self._band(ts, lt, at, val, der)

        # head: A = A_0 sigma / r_0 on (0, r_0]
        if self.phi0 > 0:
            la0 = (math.log(self.phi0) - lt) / m
            h_val, h_der = ker.power(-1.0, np.zeros(n), np.maximum(la0, 0.0), la0)
            val += np.where(la0 > 0, h_val, 0.0) / self.r0
            der += np.where(la0 > 0, h_der, 0.0) / self.r0
        # tail: A = A_N (sigma / r_N)^kappa on [r_N, inf)
        if self.phin > 0:
            lan = (math.log(self.phin) - lt) / m
            if abs(self.kappa) < 1e-12:
                w_val, w_der = ker.read(np.maximum(lan, 1e-300))
                val += np.where(lan > 0, w_val, 0.0) / self.rn
                der += np.where(lan > 0, w_der, 0.0) / self.rn
            else:
                s = -1.0 / self.kappa
                if self.kappa < 0:
                    lo, hi = np.zeros(n), np.maximum(lan, 0.0)
                else:
                    lo, hi = np.maximum(lan, 0.0), np.full(n, math.inf)
                t_val, t_der = ker.power(s, lo, hi, lan)
                keep = hi > lo
                scale = 1.0 / (abs(self.kappa) * self.rn)
                val += np.where(keep, t_val, 0.0) * scale
                der += np.where(keep, t_der, 0.0) * scale

        d_out = np.empty(n)
        dd_out = np.empty(n)
        d_out[order] = self.pre * val
        with np.errstate(over="ignore"):
            dd_out[order] = -self.pre * der / (m * ts)
        return d_out, dd_out

    def _band(self, ts, lt, stop, val, der) -> None:
        """Add the whole sub-pieces with t <= lo < 4^m t (even d) to val, der.

        Sorted by lo they are positions start .. stop - 1 of each level. The
        blocks that lie far enough above A = 1 from some block on are read
        through their Chebyshev rules; the rest piece by piece, on their 8
        graded nodes.
        """
        ker, m, n = self.kernel, self.m, len(ts)
        scale = np.exp(-lt / m)
        start = self.lo_sorted.searchsorted(ts, side="left")
        first_block = np.maximum(
            -(-start // _BAND_BLOCK), self.block_floor.searchsorted(1.0 / scale, side="left")
        )
        stop_block = stop // _BAND_BLOCK
        use = first_block < stop_block
        cut_lo = np.where(use, first_block * _BAND_BLOCK, stop)
        cut_hi = np.where(use, stop_block * _BAND_BLOCK, stop)
        for level, block in pair_blocks(
            np.where(use, first_block, 0), np.where(use, stop_block, 0), len(self.block_floor),
            per_pair=_BLOCK_NODES,
        ):
            w_val, w_der = ker.from_a(self.block_nodes[block] * scale[level, None])
            wt = self.block_weights[block]
            val += np.bincount(level, weights=np.einsum("ij,ij->i", wt, w_val), minlength=n)
            der += np.bincount(level, weights=np.einsum("ij,ij->i", wt, w_der), minlength=n)
        for lo_pos, hi_pos in ((start, cut_lo), (cut_hi, stop)):
            for level, pos in pair_blocks(lo_pos, hi_pos, len(self.order), per_pair=len(_GL8_X)):
                piece = self.order[pos]
                w_val, w_der = ker.from_a(self.band_root[piece] * scale[level, None])
                wt = self.band_weight[piece]
                val += np.bincount(level, weights=np.einsum("ij,ij->i", wt, w_val), minlength=n)
                der += np.bincount(level, weights=np.einsum("ij,ij->i", wt, w_der), minlength=n)

    def _peaks(self, ts, lt, val, der) -> None:
        """Add the whole peaks, at the sorted levels above both ends of their piece.

        Peaks ordered by their first level are read in dense tiles: a run of
        peaks times the run of levels any of them sees, at most _PEAK_TILE
        entries. Entries outside a peak's window (t <= end or t >= top) read
        the kernel at L = 0, which adds nothing. One product of e^(-u_c) with
        the tile's (K/m, K') adds the tile to every level it covers.
        """
        first = ts.searchsorted(self.peak_end, side="right")
        stop = ts.searchsorted(self.peak_top, side="left")
        live = (stop > first).nonzero()[0]
        live = live[first[live].argsort(kind="stable")]
        first, stop = first[live], stop[live]
        log_c, weight = self.peak_log[live, None], self.peak_weight[live]
        end, top = self.peak_end[live, None], self.peak_top[live, None]
        a = 0
        while a < len(live):
            lo = int(first[a])
            span = np.maximum.accumulate(stop[a : a + _PEAK_TILE]) - lo
            size = span * np.arange(1, len(span) + 1)
            b = a + max(int(size.searchsorted(_PEAK_TILE, side="right")), 1)
            hi = lo + int(span[b - a - 1])
            # a single peak may see more levels than a tile holds
            step = _PEAK_TILE // (b - a)
            for l0 in range(lo, hi, step):
                l1 = min(l0 + step, hi)
                t = ts[None, l0:l1]
                lam = log_c[a:b] - lt[None, l0:l1]
                np.maximum(lam, 0.0, out=lam)
                lam *= (t > end[a:b]) & (t < top[a:b])
                add = weight[a:b] @ self.peak_kernel(lam)
                val[l0:l1] += add[0]
                der[l0:l1] += add[1]
            a = b

    def _crossed(self, piece, t, lt):
        """Contributions of sub-pieces crossing their levels: (W, W'A) integrals."""
        ker, m = self.kernel, self.m
        ua, du, ga, gb, beta = (
            x[piece] for x in (self.ua, self.du, self.ga, self.gb, self.beta)
        )
        inc = self.inc[piece]
        phi_a, phi_b = self.phi_a[piece], self.phi_b[piece]
        # the crossing offset x in [0, du]: Newton on log phi - log t, kept
        # inside the shrinking bracket, started from the chord of phi, or
        # where phi peaks inside the piece from the parabola through the peak
        z = np.sqrt(np.abs(self.hi[piece] - t) / (self.hi[piece] - self.lo[piece]))
        chord = np.clip((t - phi_a) / (phi_b - phi_a), 0.0, 1.0)
        x = du * np.where(self.peaked[piece], np.where(inc, 1.0 - z, z), chord)
        lo, hi = np.zeros_like(du), du.copy()
        # a residual at the rounding of m u - log t is a root already
        f_tol = 4e-16 * (m * np.abs(ua) + np.abs(lt) + 1.0)
        todo = np.arange(len(x))
        for _ in range(60):
            xs, us, dus, gas, gbs = x[todo], ua[todo], du[todo], ga[todo], gb[todo]
            gx = gas + (gbs - gas) * (xs / dus)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = m * (us + xs) + np.log(gx) - lt[todo]
                nxt = xs - f / (m + beta[todo] / gx)
            below = np.where(inc[todo], f < 0, f > 0)
            lo[todo] = np.where(below, xs, lo[todo])
            hi[todo] = np.where(below, hi[todo], xs)
            lo_s, hi_s = lo[todo], hi[todo]
            nxt = np.where((nxt >= lo_s) & (nxt <= hi_s), nxt, 0.5 * (lo_s + hi_s))
            root = np.abs(f) <= f_tol[todo]
            x[todo] = np.where(root, xs, nxt)
            todo = todo[~root & (np.abs(nxt - xs) > 1e-10 * dus)]
            if len(todo) == 0:
                break
        u_star = ua + x
        # g at the root from phi = t there, positive even where g ends at 0
        g_star = np.exp(lt - m * u_star)
        span = np.where(inc, du - x, -x)[:, None]
        if ker.odd:
            step, jac = span * _GL8_X, np.abs(span) * _GL8_W
        else:
            step, jac = span * _GL8_X**2, 2.0 * np.abs(span) * _GL8_X * _GL8_W
        la = np.maximum(step + np.log1p(beta[:, None] * step / g_star[:, None]) / m, 1e-300)
        weight = jac * np.exp(-(u_star[:, None] + step))
        w_val, w_der = ker.read(la)
        return np.einsum("ij,ij->i", weight, w_val), np.einsum("ij,ij->i", weight, w_der)

    def levels_at(self, measures: np.ndarray) -> np.ndarray:
        """The levels t with d(t) = measures, by bracketed Newton in log t.

        The bracket of each target comes from d at the sub-piece end levels;
        the start is the cubic Hermite interpolant of log t against log d
        there (both slopes are known), so one or two Newton steps finish. A
        Newton step taken where log d is within 1e-4 of its target is kept
        without a further evaluation: the error after it is of the order of
        the square of that residual (levels move by at most 4e-10 relative
        against a 1e-9 stop on the package's test profiles).
        """
        x = np.zeros_like(measures)
        if len(self.levels) == 0:
            return x
        # every sub-piece end is a kink of d; a quarter-thousand of them,
        # evenly by rank, plus levels closing in on the supremum and a few
        # beyond the range bracket the targets well enough
        stride = -(-len(self.levels) // _TABLE_LEVELS)
        ladder = 16.0 ** np.arange(1, 9)
        table = [self.levels[::-1][::stride], self.levels[0] / ladder]
        if math.isinf(self.sup):
            table.append(self.levels[-1] * ladder)
        else:
            table.append(self.sup * (1.0 - 4.0 ** -np.arange(1, 26)))
        table = np.unique(np.concatenate(table))
        d_tab, dd_tab = self(table)
        n_tab = len(table)
        # bracket each target between table levels: d(lo) >= D > d(hi)
        k = np.searchsorted(-d_tab, -measures, side="right")
        ia, ib = np.maximum(k - 1, 0), np.minimum(k, n_tab - 1)
        x_tab = np.log(table)
        x_lo = np.where(k > 0, x_tab[ia], -math.inf)
        x_hi = np.where(k < n_tab, x_tab[ib], math.log(self.sup))
        with np.errstate(divide="ignore", invalid="ignore"):
            l_tab = np.log(d_tab)
            slope = d_tab / (table * dd_tab)  # d log t / d log d
            l_target = np.log(measures)
            # inside a bracket: the Hermite cubic in log d
            h = l_tab[ib] - l_tab[ia]
            s = (l_target - l_tab[ia]) / h
            x = (
                (2 * s**3 - 3 * s**2 + 1) * x_tab[ia]
                + (s**3 - 2 * s**2 + s) * h * slope[ia]
                + (3 * s**2 - 2 * s**3) * x_tab[ib]
                + (s**3 - s**2) * h * slope[ib]
            )
            # the top bracket, d(hi) = 0: the chord of d in t
            t_a, t_b, d_a = table[ia], table[ib], d_tab[ia]
            top = np.log(t_a + (d_a - measures) / d_a * (t_b - t_a))
            x = np.where((k < n_tab) & (d_tab[ib] > 0), x, top)
            # outside the table: a log-log Newton step from its end
            x = np.where(k == 0, x_tab[0] + (l_target - l_tab[0]) * slope[0], x)
            x = np.where(k == n_tab, x_tab[-1] + (l_target - l_tab[-1]) * slope[-1], x)
        x = np.where(np.isfinite(x) & (x >= x_lo) & (x <= x_hi), x, _bracket_mid(x_lo, x_hi))
        active = np.arange(len(measures))
        for _ in range(100):
            t_now = np.exp(x[active])
            d_now, dd_now = self(t_now)
            target = measures[active]
            hit = d_now >= target
            x_lo[active] = np.where(hit, x[active], x_lo[active])
            x_hi[active] = np.where(hit, x_hi[active], x[active])
            lo_a, hi_a = x_lo[active], x_hi[active]
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = np.log(d_now) - np.log(target)
                step = -resid * d_now / (t_now * dd_now)
            nxt = x[active] + step
            newton = np.isfinite(nxt) & (nxt >= lo_a) & (nxt <= hi_a)
            x[active] = np.where(newton, nxt, _bracket_mid(lo_a, hi_a))
            done = np.where(
                newton,
                np.abs(resid) <= 1e-4,
                hi_a - lo_a <= 1e-13 * np.maximum(1.0, np.abs(lo_a)),
            )
            active = active[~done]
            if len(active) == 0:
                break
        return np.exp(x)


def competing_step(
    g: RadialProfile,
    params: TransformParams,
    rho_grid: np.ndarray | None = None,
    s_grid: np.ndarray | None = None,
    out_radii: np.ndarray | None = None,
) -> RadialProfile:
    """One iteration V S: invert, rearrange back onto a radial grid.

    Equals rearrange(s_symmetry(embed_radial(g, ...), params)) in the limit of
    a fine field grid, but builds no field: the distribution function of
    S(embed g) is the one-dimensional layer-cake integral of the module
    docstring, evaluated exactly for g's canonical reading and inverted at
    the ball volumes of the output radii. The output tail exponent is k+1,
    as for s_symmetry. Without out_radii the output lands on g's own grid.

    rho_grid and s_grid, the field grid of the former step, are accepted and
    ignored. Their one caller is the benchmark's flow workload
    (perfbench/workloads.py); they go when it stops passing them. A tail
    exponent gamma below k+1 gives an image unbounded near the origin
    (competing_iterate reports it); at or below (k+1)(d-1)/d its super-level
    sets are infinite and TailDivergenceError is raised.
    """
    del rho_grid, s_grid
    out = g.radii if out_radii is None else np.asarray(out_radii, dtype=float)
    volumes = sphere_area(g.d) / g.d * out**g.d
    levels = _InversionLayerCake(g, params.k + 1).levels_at(volumes)
    return RadialProfile(g.d, out, levels, float(params.k + 1))


def competing_iterate(
    f0: RadialProfile,
    params: TransformParams,
    max_iters: int = 200,
    tol: float = 1e-4,
    nrho: int | None = None,
    ns: int | None = None,
    out_radii: np.ndarray | None = None,
) -> ConvergenceReport:
    """Run the iteration from f0 until the successive change drops below tol.

    tol is measured as ||g_{n+1} - g_n||_p / ||f0||_p (full Lebesgue measure);
    the report's distances are relative to the matched extremizer C h, where
    C makes ||C h||_p = ||f0||_p. Stopping on successive change rather than
    on the distance itself keeps the criterion usable when the limit is not
    known in advance. A step that moves the state by less than tol is treated
    as a stationarity probe and discarded, so a run started from the
    extremizer reports zero iterations and zero distance. Iterates live on
    out_radii (package default grid when omitted); f0 itself may sit on any
    grid, e.g. an exact step profile. The report keeps f0, every tenth
    iterate and the last one.

    Both operators are exact isometries, so each iterate is rescaled to the
    initial norm; without this the output grid's interpolation error (about
    1e-5 per step at 2048 nodes) compounds into a pure amplitude drift over
    hundreds of iterations while the shape stays converged. A start whose
    S-image is unbounded near the origin is reported in the warnings, with
    the raw norm defect norms[1]/norms[0] - 1 of its first step.

    nrho and ns, the field grid of the former step, are accepted and ignored.
    Their one caller is the benchmark's flow workload
    (perfbench/workloads.py); they go when it stops passing them.
    """
    del nrho, ns
    mu = lebesgue_measure(params.d)
    p = params.pf
    if out_radii is None:
        out_radii = default_radial_grid()
    out_radii = np.asarray(out_radii, dtype=float)
    h = extremizer_profile(ExtremizerSpec(params), radii=out_radii)
    norm0 = lp_norm(f0, p, mu)
    target = h.scaled(norm0 / lp_norm(h, p, mu))

    kept = [f0]
    distances = [lp_distance(f0, target, p, mu) / norm0]
    ratios = [functional_ratio(f0, params)]
    norms = [norm0]
    g = f0
    converged = False
    n_done = 0
    for n in range(1, max_iters + 1):
        g_next = competing_step(g, params, out_radii=out_radii)
        raw_norm = lp_norm(g_next, p, mu)
        g_next = g_next.scaled(norm0 / raw_norm)
        step_change = lp_distance(g_next, g, p, mu) / norm0
        if step_change < tol:
            converged = True
            break
        distances.append(lp_distance(g_next, target, p, mu) / norm0)
        ratios.append(functional_ratio(g_next, params))
        norms.append(raw_norm)
        if n % 10 == 0:
            kept.append(g_next)
        g = g_next
        n_done = n
    if kept[-1] is not g:
        kept.append(g)
    warning = None
    if f0.values[-1] > 0:
        warning = _unbounded_image_warning(f0.tail_exponent, params.k + 1)
    if warning is not None and len(norms) > 1:
        # the output grid reads the image as constant below its first node,
        # so an unbounded image loses norm there, which the rescale hides
        warning += f"; step-1 raw norm defect {norms[1] / norms[0] - 1.0:.3e}"
    return ConvergenceReport(
        iterates_kept=kept,
        distances=np.array(distances),
        ratios=np.array(ratios),
        norms=np.array(norms),
        converged=converged,
        final_profile=g,
        n_iters=n_done,
        target=target,
        warnings=() if warning is None else (warning,),
    )


def _half_max_radius(f: RadialProfile) -> float:
    """Radius where the profile first drops below half of its maximum."""
    peak = float(f.values.max())
    if peak <= 0:
        raise ValueError("profile is identically zero")
    below = np.nonzero(f.values < 0.5 * peak)[0]
    if len(below) == 0:
        return float(f.radii[-1] * (2.0 * f.values[-1] / peak) ** (1.0 / f.tail_exponent))
    j = int(below[0])
    if j == 0:
        return float(f.radii[0])
    u0, u1 = f.log_radii[j - 1], f.log_radii[j]
    v0, v1 = f.values[j - 1], f.values[j]
    frac = (0.5 * peak - v0) / (v1 - v0)
    return float(math.exp(u0 + (u1 - u0) * frac))
