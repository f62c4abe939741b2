"""Concrete functions on R^d with exact line integrals and samplers.

The Monte Carlo oracles need three things from a test function: pointwise
values, integrals over affine lines and planes, and independent draws from
the normalized density f^p / ||f||_p^p. The classes here supply all three
in closed form for the families that matter: reciprocal powers of positive
quadratic polynomials (the extremizer and everything the inversion symmetry
or an affine substitution makes of it), Gaussian bumps, and ball indicators.

Lines and planes are always parametrized affinely, x = p0 + lambda e (plus
a second direction for planes), and integrals are taken in the lambda
coordinates. They equal arc-length integrals only when the directions are
orthonormal; the span-integral oracles rely on exactly this convention.

Points are arrays of shape (..., d), coordinates on the last axis, in any
memory layout. The kernels read them one coordinate column x[..., i] at a
time, subtracting the center into a coordinate-major buffer, so that every
step is a flat operation on a contiguous column rather than a broadcast
over a short last axis. The samplers form their draws coordinate-major,
(d, n), and return the (n, d) transpose view, whose columns are contiguous;
any other layout gives the same values bit for bit, only more slowly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sf

from .errors import TailDivergenceError
from .params import TransformParams, sphere_area

__all__ = [
    "BallIndicator",
    "CauchyPowerField",
    "GaussianBump",
]


def _check_p(p: float) -> None:
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and > 0, got {p!r}")


def _centred(x, center: np.ndarray) -> np.ndarray:
    """x - center as a (..., d) view whose coordinate columns are contiguous."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[::-1])
    np.subtract(x.T, center.reshape(center.shape + (1,) * (x.ndim - 1)), out=out)
    return out.T


def _columns(z: np.ndarray) -> np.ndarray:
    """A (d, ...) view of a (..., d) array: row i is z[..., i], a scalar for one point."""
    return z.transpose(-1, *range(z.ndim - 1))


def _quad_form(P: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z^T P z over the last axis, for any leading batch shape.

    Read column by column as sum_i z_i (P_ii z_i + sum_{j>i} (P_ij + P_ji) z_j),
    which is z^T P z for any P and never forms P z.
    """
    d = len(P)
    z = _columns(z)
    for i in range(d):
        row = z[i] * P[i, i]
        for j in range(i + 1, d):
            row += z[j] * (P[i, j] + P[j, i])
        row *= z[i]
        if i == 0:
            q = row
        else:
            q += row
        del row
    return q


def _det_condition(X: np.ndarray) -> float:
    """sum |X^-1 .* X^T|: to first order, relative changes of eps in every
    entry of X move det X by at most eps times this."""
    return float(np.abs(np.linalg.inv(X) * X.T).sum())


def _line_minimum(H: np.ndarray, delta: np.ndarray, e: np.ndarray):
    """(lambda*, a, c*) with q(delta + lambda e) = a (lambda - lambda*)^2 + c*, q = z^T H z.

    c* is read as q at the foot point delta + lambda* e, not as c - b^2/(4a):
    for a line far from the origin of q (|delta| ~ 1e9) that difference
    cancels to noise of either sign, while q at a point is accurate to
    rounding and never negative. Column by column: each (H e)_i is formed,
    read into a = e . H e and b = delta . H e, and dropped; lambda* = -b/a.
    delta is overwritten with the foot point when it holds the whole batch.
    """
    d = len(H)
    e = _columns(np.asarray(e, dtype=float))
    z = _columns(delta)
    for i in range(d):
        He = e[0] * H[i, 0]  # (H e)_i
        for j in range(1, d):
            He += e[j] * H[i, j]
        if i == 0:
            a = He * e[0]
            b = He * z[0]
        else:
            a += He * e[i]
            b += He * z[i]
        del He
    lam = np.negative(b)
    lam /= a
    del b
    if delta.shape[:-1] != np.shape(lam):  # one point, many directions
        delta = np.broadcast_to(delta, np.shape(lam) + (d,)).copy()
    for i in range(d):
        foot = delta[..., i]  # a view even for one point, where z[i] is a scalar
        foot += lam * e[i]
    return lam, a, _quad_form(H, delta)


@dataclass(frozen=True, eq=False)
class CauchyPowerField:
    """amplitude * ([x;1]^T P [x;1])^(-(k+1)/2) with P positive definite.

    P = identity gives the extremizer (1 + |x|^2)^(-(k+1)/2). The family is
    closed under the two symmetries the oracles exercise: the substitution
    x -> Mx + b acts on P by congruence with [[M, b], [0, 1]], and the
    inversion (x', x_d) -> (x'/x_d, 1/x_d) together with its |x_d|^-(k+1)
    prefactor just swaps the last two rows and columns of P (the prefactor
    cancels the homogeneity of the quadratic form exactly).
    """

    k: int
    matrix: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        P = np.ascontiguousarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", P)
        if self.k < 1:
            raise ValueError(f"need k >= 1, got {self.k}")
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 3:
            raise ValueError("matrix must be square of size d+1 with d >= 2")
        if not np.allclose(P, P.T, rtol=0.0, atol=1e-12 * np.abs(P).max()):
            raise ValueError("matrix must be symmetric")
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            raise ValueError("matrix must be positive definite") from None
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        d = P.shape[0] - 1
        A = P[:d, :d]
        u = P[:d, d]
        center = -np.linalg.solve(A, u)
        # Schur complement of the spatial block: the minimum of the quadratic.
        c_min = float(P[d, d] + u @ center)
        object.__setattr__(self, "_A", A)
        object.__setattr__(self, "_center", center)
        object.__setattr__(self, "_c_min", c_min)

    @property
    def d(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def tail_exponent(self) -> float:
        return float(self.k + 1)

    @property
    def center(self) -> np.ndarray:
        """Location of the maximum, the focus for quadrature hints."""
        return self._center  # type: ignore[attr-defined]

    @classmethod
    def extremizer(cls, params: TransformParams) -> "CauchyPowerField":
        return cls(params.k, np.eye(params.d + 1))

    def value(self, x: np.ndarray) -> np.ndarray:
        # [x;1]^T P [x;1] = (x - center)^T A (x - center) + c_min
        q = _quad_form(self._A, _centred(x, self.center))  # type: ignore[attr-defined]
        q += self._c_min  # type: ignore[attr-defined]
        q **= -(self.k + 1) / 2.0
        q *= self.amplitude
        return q

    def s_transform(self) -> "CauchyPowerField":
        """The inversion symmetry |x_d|^-(k+1) f(x'/x_d, 1/x_d), exactly."""
        idx = np.arange(self.d + 1)
        idx[-2], idx[-1] = idx[-1], idx[-2]
        return CauchyPowerField(self.k, self.matrix[np.ix_(idx, idx)], self.amplitude)

    def compose_affine(self, M: np.ndarray, b: np.ndarray) -> "CauchyPowerField":
        """The field x -> f(Mx + b) for invertible M."""
        d = self.d
        E = np.zeros((d + 1, d + 1))
        E[:d, :d] = np.asarray(M, dtype=float)
        E[:d, d] = np.asarray(b, dtype=float)
        E[d, d] = 1.0
        return CauchyPowerField(self.k, E.T @ self.matrix @ E, self.amplitude)

    def dilated(self, lam: float) -> "CauchyPowerField":
        return self.compose_affine(lam * np.eye(self.d), np.zeros(self.d))

    def lp_power_norm(self, p: float) -> float:
        """||f||_p^p over R^d, in closed form."""
        d = self.d
        m = (self.k + 1) * p
        if m <= d:
            raise TailDivergenceError(
                f"decay exponent {self.k + 1} times p = {p} must exceed d = {d}"
            )
        det_a = float(np.linalg.det(self._A))  # type: ignore[attr-defined]
        radial = 0.5 * sf.beta(d / 2.0, (m - d) / 2.0)
        return (
            self.amplitude**p
            * det_a**-0.5
            * self._c_min ** ((d - m) / 2.0)  # type: ignore[attr-defined]
            * sphere_area(d)
            * radial
        )

    def lp_norm_rounding(self, p: float) -> float:
        """A first-order bound on the relative rounding of lp_power_norm(p), in eps.

        ||f||_p^p is det(A)^((m-d-1)/2) det(P)^((d-m)/2) times constants,
        m = (k+1) p, so relative changes of eps in the entries of P move it
        by at most |m-d-1|/2 cond(A) + (m-d)/2 cond(P) eps, with cond the
        determinant's condition sum |X^-1 .* X^T|. A matrix that came out of
        rounded arithmetic, such as an affine image's, is only that close
        to the field it stands for.
        """
        d = self.d
        m = (self.k + 1) * p
        return 0.5 * (
            abs(m - d - 1) * _det_condition(self._A)  # type: ignore[attr-defined]
            + (m - d) * _det_condition(self.matrix)
        )

    def sample_p(self, rng: np.random.Generator, n: int, p: float) -> np.ndarray:
        """n independent draws from f^p / ||f||_p^p.

        f^p is an elliptical Student-t density with nu = (k+1)p - d degrees
        of freedom, so draws are the classic normal over root-chi-square
        mixture; nu = 1 (a Cauchy) in the exponent-pairing case (k+1)p = d+1.
        There the chi-square(1) mix is drawn as a squared standard normal,
        which has exactly its law and costs about a quarter of numpy's
        gamma(1/2) rejection sampler; other nu keep rng.chisquare. The draws
        are formed coordinate-major and returned as the (n, d) transpose.
        """
        _check_p(p)
        d = self.d
        nu = (self.k + 1) * p - d
        if nu <= 0:
            raise TailDivergenceError("f^p is not integrable, cannot sample")
        scale = np.linalg.cholesky(
            (self._c_min / nu) * np.linalg.inv(self._A)  # type: ignore[attr-defined]
        )
        x = scale @ rng.standard_normal((n, d)).T
        if nu == 1:
            mix = rng.standard_normal(n)
            np.square(mix, out=mix)
        else:
            mix = rng.chisquare(nu, n)
        np.divide(nu, mix, out=mix)
        x *= np.sqrt(mix, out=mix)
        x += self.center[:, None]
        return x.T

    # Line and plane geometry ----------------------------------------------

    def _quadratic_on_line(self, p0, e):
        # [x;1]^T P [x;1] = (x - center)^T A (x - center) + c_min
        A = self._A  # type: ignore[attr-defined]
        lam, a, c_star = _line_minimum(A, _centred(p0, self.center), e)
        c_star += self._c_min  # type: ignore[attr-defined]
        return lam, a, c_star

    def line_focus(self, p0, e):
        """(lambda*, width) of the restriction to the line, for tan maps."""
        lam, a, c_star = self._quadratic_on_line(p0, e)
        return lam, np.sqrt(c_star / a)

    def line_integral(self, p0, e):
        """int f(p0 + lambda e) dlambda over the whole line, exactly."""
        _, a, c_star = self._quadratic_on_line(p0, e)
        k = self.k
        a **= -0.5
        a *= self.amplitude * sf.beta(0.5, k / 2.0)
        c_star **= -k / 2.0
        a *= c_star
        return a

    def line_moments(self, p0, e, p: float):
        """(int f dlambda, int f^p |lambda|^(d-1) dlambda) along p0 + lambda e, exactly.

        Both come from one reading of the quadratic on the line,
        Q = a (lambda - lambda*)^2 + c*; with s = (k+1) p / 2 and B = B(1/2, s-1/2),
          d = 3: A^p B (c*/(2s-3) + a lambda*^2) / (a^(3/2) c*^(s-1/2)),
          d = 2: A^p (Q0^(1-s) / (a (s-1)) + B |lambda*| I_x / (a^(1/2) c*^(s-1/2))),
        with Q0 = Q(p0) read at p0 as value reads it and I_x the regularized
        incomplete Beta(1/2, s-1/2) at x = a lambda*^2 / Q0. In the pairing
        case, s = (d+1)/2, these are A^p pi Q0 / (2 a^(3/2) c*^(3/2)) at d = 3
        (Q0 stands for c* + a lambda*^2) and 2 A^p sqrt(Q0) / (a c*) at d = 2.
        No term cancels: every sum is of positive terms.
        """
        d, k = self.d, self.k
        s = (k + 1) * p / 2.0
        if d not in (2, 3) or s <= d / 2.0:
            raise ValueError(f"closed-form line moments cover d in {{2, 3}} with s > d/2, "
                             f"got d = {d}, s = {s}")
        A = self._A  # type: ignore[attr-defined]
        delta = _centred(p0, self.center)
        if d == 2 or s == 2.0:  # Q0, read before delta becomes the foot point
            moment = _quad_form(A, delta)
            moment += self._c_min  # type: ignore[attr-defined]
        lam, a, c_star = _line_minimum(A, delta, e)
        del delta
        c_star += self._c_min  # type: ignore[attr-defined]
        line = self.amplitude * sf.beta(0.5, k / 2.0) / np.sqrt(a * c_star**k)
        scale = self.amplitude**p
        if d == 3 and s != 2.0:
            moment = c_star / (2.0 * s - 3.0)
            moment += a * lam * lam
        if d == 3:
            moment /= a * np.sqrt(a) * c_star * c_star ** (s - 1.5)  # s = 2: a sqrt
            moment *= scale * sf.beta(0.5, s - 0.5)
        elif s == 1.5:
            moment = np.sqrt(moment)
            moment /= a * c_star
            moment *= 2.0 * scale
        else:
            # I_x is read from the side away from 1, where 1 - x = c*/Q0 keeps its digits
            q0, x = moment, a * lam * lam / moment
            far = x > 0.5
            ix = np.where(far, 1.0 - sf.betainc(s - 0.5, 0.5, np.where(far, c_star / q0, 0.0)),
                          sf.betainc(0.5, s - 0.5, np.where(far, 0.0, x)))
            moment = q0 ** (1.0 - s) / (a * (s - 1.0))
            moment += np.abs(lam) * sf.beta(0.5, s - 0.5) * ix / (np.sqrt(a) * c_star ** (s - 0.5))
            moment *= scale
        return line, moment

    def plane_focus(self, p0, e1, e2):
        """(lambda*, G, c*) of the quadratic along x = p0 + lambda1 e1 + lambda2 e2.

        [x;1]^T P [x;1] = (lambda - lambda*)^T G (lambda - lambda*) + c* there.
        The minimum c* is read at the plane's foot point p0 + E lambda*,
        G lambda* = -beta, as _line_minimum reads it on a line:
        c - beta . G^-1 beta cancels for planes far from the center.
        """
        A = self._A  # type: ignore[attr-defined]
        E = np.stack([np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)], axis=-1)
        delta = _centred(p0, self.center)
        AE = A @ E
        G = np.swapaxes(E, -1, -2) @ AE
        beta = np.einsum("...ij,...i->...j", AE, delta)
        lam = -np.linalg.solve(G, beta[..., None])[..., 0]
        foot = delta + np.einsum("...ij,...j->...i", E, lam)
        return lam, G, self._c_min + _quad_form(A, foot)  # type: ignore[attr-defined]

    def plane_integral(self, p0, e1, e2):
        """int f(p0 + lambda1 e1 + lambda2 e2) dlambda, requires k = 2."""
        if self.k != 2:
            raise ValueError("closed-form plane integral needs decay exponent 3 (k = 2)")
        _, G, c_star = self.plane_focus(p0, e1, e2)
        return self.amplitude * 2.0 * math.pi / np.sqrt(np.linalg.det(G) * c_star)


@dataclass(frozen=True, eq=False)
class GaussianBump:
    """amplitude * exp(-(x - center)^T H (x - center)/2), H positive definite."""

    center: np.ndarray
    shape: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        center = np.ascontiguousarray(self.center, dtype=float)
        H = np.ascontiguousarray(self.shape, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", H)
        if center.ndim != 1 or H.shape != (len(center), len(center)):
            raise ValueError("shape matrix must be d x d for a d-vector center")
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("shape matrix must be positive definite") from None
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def tail_exponent(self) -> float:
        # Faster than any power; only compared against thresholds.
        return math.inf

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-0.5 * _quad_form(self.shape, _centred(x, self.center)))

    def lp_power_norm(self, p: float) -> float:
        d = self.d
        det_h = float(np.linalg.det(self.shape))
        return self.amplitude**p * (2.0 * math.pi / p) ** (d / 2.0) * det_h**-0.5

    def lp_norm_rounding(self, p: float) -> float:
        """A first-order bound on the relative rounding of lp_power_norm(p), in eps:
        it reads det(H)^(-1/2), so cond(H)/2 with cond as in CauchyPowerField."""
        del p
        return 0.5 * _det_condition(self.shape)

    def sample_p(self, rng: np.random.Generator, n: int, p: float) -> np.ndarray:
        """Draws from f^p / ||f||_p^p, a Gaussian with precision p H.

        Formed coordinate-major and returned as the (n, d) transpose.
        """
        _check_p(p)
        scale = np.linalg.cholesky(np.linalg.inv(p * self.shape))
        x = scale @ rng.standard_normal((n, self.d)).T
        x += self.center[:, None]
        return x.T

    def _quadratic_on_line(self, p0, e):
        return _line_minimum(self.shape, _centred(p0, self.center), e)

    def line_focus(self, p0, e):
        lam, a, _ = self._quadratic_on_line(p0, e)
        return lam, 1.0 / np.sqrt(a)

    def line_integral(self, p0, e):
        _, a, c_star = self._quadratic_on_line(p0, e)
        return self.amplitude * np.exp(-0.5 * c_star) * np.sqrt(2.0 * math.pi / a)

    def line_moments(self, p0, e, p: float):
        """(int f dlambda, int f^p |lambda|^(d-1) dlambda) along p0 + lambda e, exactly.

        With Q = a (lambda - lambda*)^2 + c* on the line and alpha = p a / 2,
        f^p is A^p exp(-p c*/2) times a Gaussian in lambda, so
          d = 3: A^p exp(-p c*/2) sqrt(pi/alpha) (1/(2 alpha) + lambda*^2),
          d = 2: A^p (exp(-p Q0/2)/alpha + exp(-p c*/2) |lambda*| sqrt(pi/alpha) erf(sqrt(alpha) |lambda*|)),
        the second with Q0 = Q(p0) read at p0 (the mean absolute value of a
        normal variable).
        """
        d = self.d
        if d not in (2, 3):
            raise ValueError(f"closed-form line moments cover d in {{2, 3}}, got d = {d}")
        delta = _centred(p0, self.center)
        if d == 2:  # Q0, read before delta becomes the foot point
            q0 = _quad_form(self.shape, delta)
        lam, a, c_star = _line_minimum(self.shape, delta, e)
        del delta
        line = self.amplitude * np.exp(-0.5 * c_star) * np.sqrt(2.0 * math.pi / a)
        alpha = 0.5 * p * a
        root = np.sqrt(math.pi / alpha)
        core = self.amplitude**p * np.exp(-0.5 * p * c_star)
        if d == 3:
            moment = core * root * (0.5 / alpha + lam * lam)
        else:
            lam = np.abs(lam)
            moment = self.amplitude**p * np.exp(-0.5 * p * q0) / alpha
            moment += core * lam * root * sf.erf(np.sqrt(alpha) * lam)
        return line, moment


@dataclass(frozen=True, eq=False)
class BallIndicator:
    """Indicator of a closed ball; line integrals are chord lengths."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = np.ascontiguousarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if center.ndim != 1 or len(center) < 2:
            raise ValueError("center must be a vector in R^d, d >= 2")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def d(self) -> int:
        return len(self.center)

    def value(self, x: np.ndarray) -> np.ndarray:
        inside = _quad_form(np.eye(self.d), _centred(x, self.center)) <= self.radius**2
        return inside.astype(float)

    def lp_power_norm(self, p: float) -> float:
        d = self.d
        return sphere_area(d) * self.radius**d / d

    def lp_norm_rounding(self, p: float) -> float:
        """A first-order bound on the relative rounding of lp_power_norm(p), in eps:
        a relative change of eps in the radius moves R^d by d eps."""
        del p
        return float(self.d)

    def sample_p(self, rng: np.random.Generator, n: int, p: float) -> np.ndarray:
        """Uniform draws from the ball (f^p is the normalized indicator).

        Formed coordinate-major and returned as the (n, d) transpose.
        """
        _check_p(p)
        z = rng.standard_normal((n, self.d)).T.copy()
        z /= np.linalg.norm(z, axis=0)
        r = rng.random(n)
        r **= 1.0 / self.d
        r *= self.radius
        z *= r
        z += self.center[:, None]
        return z.T

    def _distance_on_line(self, p0, e):
        return _line_minimum(np.eye(self.d), _centred(p0, self.center), e)

    def line_focus(self, p0, e):
        lam, ee, _ = self._distance_on_line(p0, e)
        return lam, self.radius / np.sqrt(ee)

    def line_integral(self, p0, e):
        """Chord length of the line in lambda units: 2 sqrt(R^2 - dist^2)/|e|.

        dist^2 is read at the foot point, as _line_minimum reads c*.
        """
        _, ee, dist2 = self._distance_on_line(p0, e)
        chord2 = np.clip(self.radius**2 - dist2, 0.0, None)
        return 2.0 * np.sqrt(chord2 / ee)

    def line_moments(self, p0, e, p: float):
        """(chord length, int_chord |lambda|^(d-1) dlambda) along p0 + lambda e.

        The chord is lambda* +- h with h = sqrt((R^2 - dist^2) / |e|^2); f^p
        is the indicator itself. A chord that holds lambda = 0 has moment
        (|l+|^d + |l-|^d) / d; one that does not, (l+ - l-) times the
        symmetric sum of l+^i l-^(d-1-i), over d, so nothing cancels.
        """
        del p
        d = self.d
        lam, ee, dist2 = self._distance_on_line(p0, e)
        half = np.sqrt(np.clip(self.radius**2 - dist2, 0.0, None) / ee)
        hi, lo = lam + half, lam - half
        inside = (np.abs(hi) ** d + np.abs(lo) ** d) / d
        beside = sum(hi**i * lo ** (d - 1 - i) for i in range(d))
        beside = 2.0 * half * np.abs(beside) / d
        return 2.0 * half, np.where((lo <= 0.0) & (hi >= 0.0), inside, beside)
