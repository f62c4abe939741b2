"""Competing-symmetries iteration toward the extremizer.

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

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import logsumexp

from .errors import TailDivergenceError
from .params import TransformParams, sphere_area
from .profiles import (
    AxiSymField,
    RadialProfile,
    _gl01,
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

__all__ = [
    "ConvergenceReport",
    "DilationFit",
    "EllipsoidFit",
    "competing_step",
    "competing_iterate",
    "vs_squared_dilation_fit",
    "ellipsoid_levelset_check",
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


@dataclass(frozen=True)
class DilationFit:
    """Best dilation mu matching F^2 f to mu^{d/p} f(mu r), with the residual."""

    mu: float
    residual: float


@dataclass(frozen=True, eq=False)
class EllipsoidFit:
    """Shared-eccentricity fit of field level sets.

    The model is c rho^2 + (s - s0)^2 / c = R_l^2 with one (c, s0) for all
    levels and a radius per level. rms_error is the relative radial misfit
    over all contour points; levels at or below the largest boundary-ring
    value are skipped (their super-level sets leave the grid box).
    """

    c: float
    s0: float
    rms_error: float
    levels_used: np.ndarray
    per_level_c: np.ndarray
    n_skipped: int


# ---------------------------------------------------------------------------
# The layer-cake identity of the inversion image
# ---------------------------------------------------------------------------

# Even d: W's A^-2 series is used where A >= _A_SPLIT, cut after the A^-28
# term (4^-28 ~ 1e-17 relative there); below the split W is read in closed form.
_A_SPLIT = 4.0
_SERIES_LOWEST = -28
_GL12_X, _GL12_W = _gl01(12)  # moments of whole pieces
_GL8_X, _GL8_W = _gl01(8)  # crossed pieces and the band below the split
_GL4_X, _GL4_W = _gl01(4)
_GL2_X, _GL2_W = _gl01(2)
_GL32_X, _GL32_W = _gl01(32)  # head and tail below the split
_GL48_X, _GL48_W = _gl01(48)  # the peak kernel at its fit nodes
# (level, piece) pairs handled at once; more are swept in blocks of levels
_PAIR_BLOCK = 1 << 15
# a piece whose interior maximum rises at most this much in log phi above its
# higher end is read through the peak kernel at the levels above that end
_PEAK_LOG_RISE = 0.25
_PEAK_FIT_NODES = 20
# sub-piece end levels at which d is tabulated to start the inversion
_TABLE_LEVELS = 256
# even d: band pieces adjacent in lo order, read together on one Chebyshev
# rule in phi^(1/m) when they sit far enough above A = 1 (see _band)
_BAND_BLOCK = 32
_BLOCK_NODES = 12
_BLOCK_APART = 2.0
# band pieces at least this many piece widths (in A) above A = 1 and at most
# this wide in log r take 4, then 2 nodes (both then err below 1e-10)
_TIER1, _TIER2 = (4.0, 0.3), (64.0, 0.02)


class _LayerKernel:
    """W(A) and W'(A) A, read from la = log A >= 0.

    W'(y) y = y^d (1 - y^-2)^((d-3)/2) = sum_n w_n y^(j_n), j_n = d - 2n, so
    W = sum_{j_n != 0} w_n A^(j_n) / j_n + b log A + c, b the j = 0 weight.
    For odd d the sum is finite and W a polynomial. For even d it is the
    binomial series, cut at A^-28 and used only where A >= _A_SPLIT; there W
    itself is P(A) sqrt(A^2 - 1) + e arcosh A, P of degree d - 1, and c makes
    the cut series agree with it at the split.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self.odd = bool(d % 2)
        half = (d - 3) / 2.0
        n_terms = (d - 1) // 2 if self.odd else (d - _SERIES_LOWEST) // 2 + 1
        w = np.ones(n_terms)
        for n in range(1, n_terms):
            w[n] = -w[n - 1] * (half - (n - 1)) / n
        self.j = d - 2.0 * np.arange(n_terms)
        self.w = w
        nonzero = self.j != 0
        self.a = np.where(nonzero, w / np.where(nonzero, self.j, 1.0), 0.0)
        self.b = float(w[~nonzero].sum())
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
        ls = math.log(_A_SPLIT)
        self.c = 0.0
        self.c = float(self.value(np.array(ls)) - self._series(np.array(ls)))

    def _series(self, la: np.ndarray) -> np.ndarray:
        return np.exp(la[..., None] * self.j) @ self.a + self.b * la + self.c

    def value(self, la: np.ndarray) -> np.ndarray:
        """W(e^la), free of cancellation near A = 1."""
        if self.odd:
            return sum(a * np.expm1(j * la) for a, j in zip(self.a, self.j))
        big_a = np.exp(la)
        am1 = np.expm1(la)
        root = np.sqrt(am1 * (big_a + 1.0))
        return (
            np.polynomial.polynomial.polyval(big_a, self.poly) * root
            + self.arcosh * np.log1p(am1 + root)
        )

    def from_a(self, big_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W(A), W'(A) A) for even d from A itself: one square root, one log.

        A - 1 loses relative precision near A = 1, where W is small; the
        band reads it only on whole pieces above their level.
        """
        root = np.sqrt(np.maximum(big_a - 1.0, 1e-300) * (big_a + 1.0))
        poly = np.full_like(big_a, self.poly[-1])
        for c in self.poly[-2::-1]:
            poly = poly * big_a + c
        cube = big_a * big_a * big_a
        slope = cube / root if self.d == 2 else root ** (self.d - 3) * cube
        return poly * root + self.arcosh * np.log(big_a + root), slope

    def slope(self, la: np.ndarray) -> np.ndarray:
        """W'(A) A = (A^2 - 1)^((d-3)/2) A^3 at A = e^la > 1."""
        if self.odd:
            return sum(w * np.exp(j * la) for w, j in zip(self.w, self.j))
        big_a = np.exp(la)
        root = np.sqrt(np.expm1(la) * (big_a + 1.0))
        return root ** (self.d - 3) * big_a**3

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
                val[band] += np.sum(weight * self.value(la), axis=-1)
                der[band] += np.sum(weight * self.slope(la), axis=-1)
        return val, der


def _psi(y: np.ndarray) -> np.ndarray:
    """y - log(1 + y), by its series where the difference cancels."""
    small = np.abs(y) < 0.1
    ys = np.where(small, y, 0.0)
    series = np.zeros_like(ys)
    for k in range(17, 1, -1):
        series = series * ys + (-1.0) ** k / k
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
        k_val = np.sum(weight * ker.value(la), axis=1)
        cheb = np.polynomial.chebyshev.chebfit(x, k_val / q**self.d, n - 1)
        # keep the terms above rounding: few on the short intervals of
        # ordinary grids, where P is nearly linear
        keep = int(np.flatnonzero(np.abs(cheb) > 1e-15 * np.abs(cheb).max())[-1]) + 1
        poly = np.polynomial.Chebyshev(cheb[:keep], domain=[0.0, self.q_max])
        self.coef = poly.convert(kind=np.polynomial.Polynomial).coef[::-1]

    def __call__(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(K, dK/dL) at lam in [0, lam_max]."""
        q = np.sqrt(lam)
        p, dp = np.full_like(q, self.coef[0]), np.zeros_like(q)
        for c in self.coef[1:]:
            dp = dp * q + p
            p = p * q + c
        q_d2 = q if self.d == 3 else q ** (self.d - 2)
        return q_d2 * lam * p, 0.5 * q_d2 * (self.d * p + q * dp)


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
    """e^(-s lref) int_{e^llo}^{e^lhi} log(A) A^(s-1) dA."""
    if s == 0:
        return 0.5 * (lhi**2 - llo**2)

    def antider(la):
        with np.errstate(invalid="ignore"):
            return np.where(
                np.isinf(la), 0.0, np.exp(s * (la - lref)) * (la / s - 1.0 / s**2)
            )

    return antider(lhi) - antider(llo)


def _pair_blocks(first: np.ndarray, stop: np.ndarray, n_levels: int):
    """(piece, level) index pairs of the runs first[j] .. stop[j] - 1, in blocks.

    Each piece meets one contiguous run of the sorted levels; blocks of levels
    keep each batch of pairs at about _PAIR_BLOCK.
    """
    count = np.maximum(stop - first, 0)
    total = int(count.sum())
    if total == 0:
        return
    per_level = np.cumsum(
        np.bincount(first, weights=count > 0, minlength=n_levels + 1)
        - np.bincount(stop, weights=count > 0, minlength=n_levels + 1)
    )[:n_levels]
    edges = np.searchsorted(
        np.cumsum(per_level), np.arange(_PAIR_BLOCK, total, _PAIR_BLOCK), side="left"
    )
    for b0, b1 in zip(np.r_[0, edges], np.r_[edges, n_levels]):
        start = np.maximum(first, b0)
        n = np.minimum(stop, b1) - start
        live = (n > 0).nonzero()[0]
        if len(live) == 0:
            continue
        n = n[live]
        ends = n.cumsum()
        yield live.repeat(n), np.arange(ends[-1]) + (start[live] - (ends - n)).repeat(n)


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
    band between is integrated per (level, sub-piece), or per block of
    sub-pieces far from A = 1). A piece with an interior maximum, at levels
    above both its ends, enters through the one-variable _PeakKernel instead
    of two crossings. The constant head and the power tail are closed form.
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
        self.peak_u = uc[split][kernel_read]
        self.peak_log = log_peak[kernel_read]
        self.peak_top = np.exp(log_peak[kernel_read])
        self.peak_end = np.exp(log_end[kernel_read])
        self.peak_kernel = (
            _PeakKernel(ker, m, float(np.max(log_peak - log_end, where=kernel_read, initial=0.0)))
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
            # phi^(1/m) t^(-1/m). Pairs within 4 piece widths (in A) of A = 1
            # take 8 nodes x^2-graded from the low end, which absorb the
            # square root of W there; pairs 4 and 64 widths away take plain
            # 4- and 2-node rules, whose error then falls below 1e-10.
            u_low = np.where(self.inc, ua, ub)[:, None]
            g_low = np.where(self.inc, ga, gb)[:, None]
            span = np.where(self.inc, self.du, -self.du)[:, None]
            self.band_rules = []
            for x, w, graded in ((_GL8_X, _GL8_W, True), (_GL4_X, _GL4_W, False), (_GL2_X, _GL2_W, False)):
                step = span * (x**2 if graded else x)
                uu = u_low + step
                with np.errstate(divide="ignore"):
                    root = np.exp(uu + np.log(g_low + beta[:, None] * step) / m)
                jac = np.abs(span) * (2.0 * x * w if graded else w)
                self.band_rules.append((root, jac * np.exp(-uu)))
            self.lo_root = self.lo ** (1.0 / m)
            self.hi_root = self.hi ** (1.0 / m)
            # blocks of _BAND_BLOCK pieces adjacent in lo order: the weights of
            # _BLOCK_NODES Chebyshev points in xi = phi^(1/m) integrate the
            # interpolant of any function of xi exactly against the pieces'
            # 8-node rules. A level reads a block through them when the block
            # lies _BLOCK_APART of its widths above xi = t^(1/m), A = 1, where
            # interpolating W(xi t^(-1/m)) errs below 1e-12
            n_blocks = len(order) // _BAND_BLOCK
            block = order[: n_blocks * _BAND_BLOCK].reshape(n_blocks, _BAND_BLOCK)
            xi_lo = self.lo_root[block[:, 0]]
            width = np.maximum(self.hi_root[block].max(axis=1) - xi_lo, 1e-15 * xi_lo)
            cheb = np.cos(math.pi * (np.arange(_BLOCK_NODES) + 0.5) / _BLOCK_NODES)
            bary = (-1.0) ** np.arange(_BLOCK_NODES) * np.sqrt(1.0 - cheb**2)
            root8, weight8 = self.band_rules[0]
            atoms = root8[block].reshape(n_blocks, 8 * _BAND_BLOCK)
            atoms = 2.0 * (atoms - xi_lo[:, None]) / width[:, None] - 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                basis = bary / (atoms[:, :, None] - cheb)
                basis /= basis.sum(axis=2, keepdims=True)
            self.block_nodes = xi_lo[:, None] + 0.5 * width[:, None] * (cheb + 1.0)
            self.block_weights = np.einsum(
                "ba,bak->bk", weight8[block].reshape(n_blocks, 8 * _BAND_BLOCK), np.nan_to_num(basis)
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
        for piece, level in _pair_blocks(first, stop, n):
            v_add, d_add = self._crossed(piece, ts[level], lt[level])
            val += np.bincount(level, weights=v_add, minlength=n)
            der += np.bincount(level, weights=d_add, minlength=n)
        # whole peaks, above both ends of their piece
        if self.peak_kernel is not None:
            first = ts.searchsorted(self.peak_end, side="right")
            stop = ts.searchsorted(self.peak_top, side="left")
            for peak, level in _pair_blocks(first, stop, n):
                k_val, k_der = self.peak_kernel(np.maximum(self.peak_log[peak] - lt[level], 0.0))
                weight = np.exp(-self.peak_u[peak])
                val += np.bincount(level, weights=weight * k_val / m, minlength=n)
                der += np.bincount(level, weights=weight * k_der, minlength=n)

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
                pos = np.maximum(lan, 1e-300)
                val += np.where(lan > 0, ker.value(pos), 0.0) / self.rn
                der += np.where(lan > 0, ker.slope(pos), 0.0) / self.rn
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
        through their Chebyshev rules; the rest piece by piece, on 8 graded
        nodes within 4 piece widths (in A) of A = 1, else on 4 or 2 nodes.
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
        for level, block in _pair_blocks(
            np.where(use, first_block, 0), np.where(use, stop_block, 0), len(self.block_floor)
        ):
            w_val, w_der = ker.from_a(self.block_nodes[block] * scale[level, None])
            wt = self.block_weights[block]
            val += np.bincount(level, weights=np.sum(wt * w_val, axis=1), minlength=n)
            der += np.bincount(level, weights=np.sum(wt * w_der, axis=1), minlength=n)
        for lo_pos, hi_pos in ((start, cut_lo), (cut_hi, stop)):
            for level, pos in _pair_blocks(lo_pos, hi_pos, len(self.order)):
                piece = self.order[pos]
                a_lo = self.lo_root[piece] * scale[level]
                a_hi = self.hi_root[piece] * scale[level]
                with np.errstate(divide="ignore", invalid="ignore"):
                    apart = (a_lo - 1.0) / (a_hi - a_lo)
                du = self.du[piece]
                tier = np.where(
                    (apart >= _TIER2[0]) & (du <= _TIER2[1]),
                    2,
                    np.where((apart >= _TIER1[0]) & (du <= _TIER1[1]), 1, 0),
                )
                for k, (root, weight) in enumerate(self.band_rules):
                    sel = tier == k
                    p_sel, l_sel = piece[sel], level[sel]
                    w_val, w_der = ker.from_a(root[p_sel] * scale[l_sel, None])
                    wt = weight[p_sel]
                    val += np.bincount(l_sel, weights=np.sum(wt * w_val, axis=1), minlength=n)
                    der += np.bincount(l_sel, weights=np.sum(wt * w_der, axis=1), minlength=n)

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
        return np.sum(weight * ker.value(la), axis=1), np.sum(weight * ker.slope(la), axis=1)

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
        fallback = np.where(
            np.isinf(x_lo), x_hi - 2.0, np.where(np.isinf(x_hi), x_lo + 2.0, 0.5 * (x_lo + x_hi))
        )
        x = np.where(np.isfinite(x) & (x >= x_lo) & (x <= x_hi), x, fallback)
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
            fallback = np.where(
                np.isinf(lo_a), hi_a - 2.0, np.where(np.isinf(hi_a), lo_a + 2.0, 0.5 * (lo_a + hi_a))
            )
            x[active] = np.where(newton, nxt, fallback)
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

    rho_grid and s_grid, the field grid of the former step, are accepted for
    existing callers and ignored. A tail exponent gamma below k+1 gives an
    image unbounded near the origin (competing_iterate reports it); at or
    below (k+1)(d-1)/d its super-level sets are infinite and
    TailDivergenceError is raised.
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
    keep_every: int = 10,
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
    grid, e.g. an exact step profile.

    Both operators are exact isometries, so each iterate is rescaled to the
    initial norm; without this the output grid's interpolation error (about
    1e-5 per step at 2048 nodes) compounds into a pure amplitude drift over
    hundreds of iterations while the shape stays converged.

    nrho and ns, the field grid of the former step, are accepted for existing
    callers and ignored.
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
    warning = _unbounded_image_warning(f0.tail_exponent, params.k + 1) if f0.values[-1] > 0 else None

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
        if n % keep_every == 0:
            kept.append(g_next)
        g = g_next
        n_done = n
    if kept[-1] is not g:
        kept.append(g)
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


def vs_squared_dilation_fit(f: RadialProfile, params: TransformParams) -> DilationFit:
    """Fit F^2 f, two iteration steps, by a dilate of f.

    Seeds mu from the ratio of half-maximum radii (median level-set match),
    then minimizes the relative L^p misfit of mu^{d/p} f(mu r) against F^2 f
    over log mu. Small residuals certify the two-step map acts on the profile
    like a pure dilation, the mechanism that sends mass to the extremizer's
    scale along the flow.
    """
    mu = lebesgue_measure(params.d)
    p = params.pf
    g2 = competing_step(competing_step(f, params), params)
    norm2 = lp_norm(g2, p, mu)
    mu0 = _half_max_radius(f) / _half_max_radius(g2)

    def residual(log_mu: float) -> float:
        m = math.exp(log_mu)
        cand = f.dilated(m).scaled(m ** (params.d / p))
        return lp_distance(g2, cand, p, mu) / norm2

    res = minimize_scalar(
        residual,
        bounds=(math.log(mu0) - 0.7, math.log(mu0) + 0.7),
        method="bounded",
        options={"xatol": 1e-7},
    )
    return DilationFit(mu=float(math.exp(res.x)), residual=float(res.fun))


def _contour_points(field: AxiSymField, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Crossing points of the level t by linear interpolation along grid lines."""
    v = field.values
    rho, s = field.rho, field.s
    pts_r: list[np.ndarray] = []
    pts_s: list[np.ndarray] = []
    # crossings along rho (fixed s column)
    a = v[:-1, :] - t
    b = v[1:, :] - t
    ii, jj = np.nonzero(a * b < 0)
    if len(ii):
        frac = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        pts_r.append(rho[ii] + frac * (rho[ii + 1] - rho[ii]))
        pts_s.append(s[jj])
    # crossings along s (fixed rho row)
    a = v[:, :-1] - t
    b = v[:, 1:] - t
    ii, jj = np.nonzero(a * b < 0)
    if len(ii):
        frac = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        pts_r.append(rho[ii])
        pts_s.append(s[jj] + frac * (s[jj + 1] - s[jj]))
    if not pts_r:
        return np.array([]), np.array([])
    return np.concatenate(pts_r), np.concatenate(pts_s)


def _fit_c_s0(
    groups: list[tuple[np.ndarray, np.ndarray]], c0: float, s00: float
) -> tuple[float, float, float]:
    """Least-squares (c, s0) shared across level groups; returns (c, s0, rms)."""

    def cost(x: np.ndarray) -> float:
        c = math.exp(x[0])
        s0 = x[1]
        total = 0.0
        count = 0
        for rr, ss in groups:
            q = np.sqrt(c * rr**2 + (ss - s0) ** 2 / c)
            r_l = q.mean()
            total += float(np.sum((q / r_l - 1.0) ** 2))
            count += len(q)
        return total / count

    res = minimize(
        cost,
        x0=np.array([math.log(c0), s00]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400},
    )
    c = float(math.exp(res.x[0]))
    s0 = float(res.x[1])
    return c, s0, float(math.sqrt(cost(res.x)))


def ellipsoid_levelset_check(g: AxiSymField) -> EllipsoidFit:
    """Fit the field's level sets by coaxial ellipsoids of common eccentricity.

    Levels are the fractions 1/10 .. 9/10 of the field maximum; levels not
    enclosed by the grid box are skipped. The inversion image of a dilated
    extremizer has exact ellipsoidal level sets lam rho^2 + s^2 / lam = const,
    so c estimates the dilation factor and s0 should vanish.
    """
    vmax = float(g.values.max())
    if vmax <= 0:
        raise ValueError("cannot fit level sets of the zero field")
    floor = g.boundary_max()
    levels_all = vmax * np.arange(1, 10) / 10.0
    groups: list[tuple[np.ndarray, np.ndarray]] = []
    levels_used: list[float] = []
    n_skipped = 0
    for t in levels_all:
        if t <= floor:
            n_skipped += 1
            continue
        rr, ss = _contour_points(g, float(t))
        if len(rr) < 8:
            n_skipped += 1
            continue
        groups.append((rr, ss))
        levels_used.append(float(t))
    if not groups:
        raise ValueError("no usable level sets inside the grid box")
    # moment-based seed: axis lengths from the extents of each contour
    ratios = []
    centers = []
    for rr, ss in groups:
        a = rr.max()
        b = 0.5 * (ss.max() - ss.min())
        if a > 0 and b > 0:
            ratios.append(b / a)
        centers.append(0.5 * (ss.max() + ss.min()))
    c0 = float(np.median(ratios)) if ratios else 1.0
    s00 = float(np.median(centers))
    c, s0, rms = _fit_c_s0(groups, c0, s00)
    per_level = []
    for grp in groups:
        cl, _, _ = _fit_c_s0([grp], c, s0)
        per_level.append(cl)
    return EllipsoidFit(
        c=c,
        s0=s0,
        rms_error=rms,
        levels_used=np.array(levels_used),
        per_level_c=np.array(per_level),
        n_skipped=n_skipped,
    )
