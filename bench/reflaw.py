"""Reference implementation of the two-branch law, independent of ``incomedist``.

The benchmark draws every input from this module, so a change to the
package's own sampler or quadrature cannot change what the fit
workloads are fed, and ``ks_final`` can be cross-checked against a CDF
the package did not compute.

The density is

    p(m) = c * exp(lk_low(m))                  m <  m1
    p(m) = c * exp(lk_high(m) + log_ratio)     m >= m1
    lk(m; T, a) = -(m0/T) atan(m/m0) - (a+1)/2 log1p((m/m0)^2)

with log_ratio fixing continuity at m1.  The CCDF is tabulated on
knots 0 < m_lo < ... < m_hi (geometric, with m1 a knot) by Gauss-Legendre
panels in log m, plus a power-law remainder above m_hi.  Every
evaluation between knots integrates the partial panel again, so there
is no interpolation error; the stated error is the disagreement of two
quadrature orders summed over panels, which bounds the higher order's
error by a wide margin for these smooth integrands.
"""

from __future__ import annotations

import math

import numpy as np

_ORDER = 20
_PER_DECADE = 24


def _gauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X_HI, _W_HI = _gauss(_ORDER)
_X_LO, _W_LO = _gauss(_ORDER // 2)


class ReferenceLaw:
    """Two-branch law with a tabulated CCDF; see the module docstring.

    ``params`` is a mapping with keys T, T1, m0, m1, alpha, alpha1 (the
    package's JSON names).
    """

    def __init__(self, params):
        self.params = dict(params)
        p = self.params
        self.m0, self.m1 = float(p["m0"]), float(p["m1"])
        self.beta_low = self.m0 / float(p["T"])
        self.beta_high = self.m0 / float(p["T1"])
        self.alpha, self.alpha1 = float(p["alpha"]), float(p["alpha1"])
        r1 = self.m1 / self.m0
        self.log_ratio = self._lk(r1, self.beta_low, self.alpha) - self._lk(
            r1, self.beta_high, self.alpha1
        )
        m_lo = 1e-9 * min(float(p["T"]), self.m0)
        m_hi = 1e20 * max(self.m1, self.m0)
        below = np.geomspace(m_lo, self.m1, _decades(m_lo, self.m1) + 1)
        above = np.geomspace(self.m1, m_hi, _decades(self.m1, m_hi) + 1)
        self.knots = np.concatenate([[0.0], below, above[1:]])
        lo, hi = self.knots[:-1], self.knots[1:]
        mass = self._panel(lo, hi, _X_HI, _W_HI)
        mass_coarse = self._panel(lo, hi, _X_LO, _W_LO)
        # Power-law remainder: p(m) ~ m^-(alpha1+1) above m_hi.
        tail = math.exp(self.log_density_unnorm(m_hi)) * m_hi / self.alpha1
        self.norm = float(mass.sum() + tail)
        # ccdf at each knot, summed from the top to keep tail precision.
        above_mass = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]]) + tail
        self.ccdf_knots = above_mass / self.norm
        self.stated_error = float(np.abs(mass - mass_coarse).sum() / self.norm) + 1e-15

    @staticmethod
    def _lk(r, beta, alpha):
        return -beta * np.arctan(r) - 0.5 * (alpha + 1.0) * np.log1p(r * r)

    def log_density_unnorm(self, m):
        r = np.asarray(m, dtype=float) / self.m0
        low = self._lk(r, self.beta_low, self.alpha)
        high = self._lk(r, self.beta_high, self.alpha1) + self.log_ratio
        return np.where(np.asarray(m) < self.m1, low, high)

    def _panel(self, lo, hi, nodes, weights):
        """Unnormalized mass of each [lo, hi] panel (lo may be 0)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.zeros(lo.shape)
        lin = lo <= 0.0
        if np.any(lin):
            m = lo[lin, None] + (hi - lo)[lin, None] * nodes
            f = np.exp(self.log_density_unnorm(m))
            out[lin] = (hi - lo)[lin] * (f @ weights)
        geo = ~lin & (hi > lo)
        if np.any(geo):
            a, b = np.log(lo[geo]), np.log(hi[geo])
            x = a[:, None] + (b - a)[:, None] * nodes
            m = np.exp(x)
            f = np.exp(self.log_density_unnorm(m)) * m
            out[geo] = (b - a) * (f @ weights)
        return out

    def ccdf(self, m):
        """P(income > m), accurate to ``stated_error`` absolute."""
        m = np.clip(np.asarray(m, dtype=float), 0.0, self.knots[-1])
        j = np.clip(np.searchsorted(self.knots, m, side="right") - 1, 0, self.knots.size - 2)
        upper = self.knots[j + 1]
        part = self._panel(m, upper, _X_HI, _W_HI) / self.norm
        return self.ccdf_knots[j + 1] + part

    def cdf(self, m):
        return 1.0 - self.ccdf(m)

    def sample(self, n, rng, stratified=False):
        """n draws by inverse CCDF of seeded uniforms.

        ``stratified`` puts one uniform in each of n equal-probability
        strata and shuffles them: every record is still a draw from the
        law, but the sample's empirical CDF stays within 1/n of it.
        """
        u = rng.random(n)
        if stratified:
            u = rng.permutation((np.arange(n) + u) / n)
        return self.inverse_ccdf(1.0 - u)

    def inverse_ccdf(self, q):
        """Income m with ccdf(m) = q for q in (0, 1], by Newton refinement."""
        log_ck = np.log(self.ccdf_knots)
        # ccdf_knots decreases; locate each q between knots.
        j = np.searchsorted(-self.ccdf_knots, -q, side="right") - 1
        j = np.clip(j, 0, self.knots.size - 2)
        lo, hi = self.knots[j], self.knots[j + 1]
        lq = np.log(q)
        safe_lo = np.where(lo > 0.0, lo, hi * 1e-3)
        frac = np.clip((log_ck[j] - lq) / (log_ck[j] - log_ck[j + 1]), 0.0, 1.0)
        m = np.exp(np.log(safe_lo) + frac * (np.log(hi) - np.log(safe_lo)))
        m = np.where(lo > 0.0, m, frac * hi)
        for _ in range(4):
            c = self.ccdf(m)
            dens = np.exp(self.log_density_unnorm(m)) / self.norm
            m = np.clip(m + (c - q) / dens, lo, hi)
        return m

    def ks(self, sample):
        """Sup distance between a sample's empirical CDF and this law."""
        x = np.sort(np.asarray(sample, dtype=float).ravel())
        n = x.size
        cdf = self.cdf(x)
        steps = np.arange(n + 1) / n
        return float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))


def _decades(a, b):
    return max(1, int(math.ceil(math.log10(b / a) * _PER_DECADE)))
