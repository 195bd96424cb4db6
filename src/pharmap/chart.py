"""Global chart of a rotationally symmetric target.

A model space with warp ``sigma`` is covered by the single chart ``x = r * Theta``
on R^n (r = |x| is the geodesic distance to the pole).  In these coordinates
the metric splits into the radial eigendirection x/r with eigenvalue 1 and
the tangential eigenspace with eigenvalue ``(sigma(r)/r)^2``:

    h(x) = w(r) I + (1 - w(r)) x x^T / r^2,      w(r) = (sigma(r)/r)^2.

Near the pole the naive formula is 0/0; for analytic warps we switch to the
series ``w = 1 + sigma'''(0) r^2 / 3 + O(r^4)`` below ``R_TINY``, which gives

    h      = (1 + c r^2) I - c x x^T,
    dh_ijk = c (2 x_k delta_ij - delta_ik x_j - delta_jk x_i),   c = sigma'''(0)/3,

with no divisions at all.  Sampled warps cannot certify the cancellation and
refuse evaluation inside the pole neighborhood.

Dimension 1 targets (the Euclidean line, h = 1) are supported so that scalar
p-harmonic oracles can run through the same solver.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError
from .warp import IdentityWarp, ModelManifold, WarpingFunction

__all__ = ["TargetChart", "R_TINY"]

#: below this radius the series branch replaces the 0/0-prone formulas
R_TINY = 1e-6


class TargetChart:
    """Chart realization of a model target with the pole at the origin."""

    def __init__(self, manifold: ModelManifold | None):
        if manifold is None:
            self._dim = 1
            self._warp: WarpingFunction = IdentityWarp()
        else:
            self._dim = manifold.dim
            self._warp = manifold.warp
        self.manifold = manifold
        self._flat = isinstance(self._warp, IdentityWarp)

    @classmethod
    def euclidean_line(cls) -> "TargetChart":
        """Dimension-1 Euclidean target (h = 1) for scalar oracles."""
        return cls(None)

    @classmethod
    def from_warp(cls, warp: WarpingFunction, dim: int) -> "TargetChart":
        return cls(ModelManifold(dim, warp))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def warp(self) -> WarpingFunction:
        return self._warp

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
            squeeze = True
        else:
            squeeze = False
        if x.ndim != 2 or x.shape[1] != self._dim:
            raise UsageError(f"points must have shape (m, {self._dim})")
        if not np.all(np.isfinite(x)):
            raise DomainError("chart points must be finite")
        return x, squeeze

    def dist_to_pole(self, x):
        """Geodesic distance to the pole, |x| in this chart."""
        x, squeeze = self._points(x)
        r = np.linalg.norm(x, axis=1)
        return float(r[0]) if squeeze else r

    def _radial_factor(self, r):
        """w(r) = (sigma(r)/r)^2 and the coefficient (1-w)/r^2, series-safe."""
        w = np.ones_like(r)
        coef = np.zeros_like(r)
        small = r < R_TINY
        big = ~small
        if np.any(big):
            rb = r[big]
            s, _, _ = self._warp.evaluate(rb)
            if np.any(s <= 0.0):
                raise DomainError("warp must be positive away from the pole")
            wb = (s / rb) ** 2
            w[big] = wb
            coef[big] = (1.0 - wb) / rb**2
        if np.any(small):
            third = self._warp.third_at_zero
            if third is None:
                raise DomainError(
                    f"chart metric within r < {R_TINY:g} of the pole needs an analytic warp"
                )
            c = third / 3.0
            rs = r[small]
            w[small] = 1.0 + c * rs * rs
            coef[small] = -c
        return w, coef

    def metric(self, x):
        """Metric matrices h(x); shape (m, n, n) for batched points."""
        x, squeeze = self._points(x)
        m, n = x.shape
        eye = np.eye(n)
        if self._flat:
            h = np.broadcast_to(eye, (m, n, n)).copy()
            return h[0] if squeeze else h
        r = np.linalg.norm(x, axis=1)
        w, coef = self._radial_factor(r)
        h = w[:, None, None] * eye + coef[:, None, None] * (x[:, :, None] * x[:, None, :])
        return h[0] if squeeze else h

    def metric_jacobian(self, x):
        """Derivatives dh[i,j,k] = d h_ij / d x^k; shape (m, n, n, n)."""
        x, squeeze = self._points(x)
        m, n = x.shape
        if self._flat:
            dh = np.zeros((m, n, n, n))
            return dh[0] if squeeze else dh
        r = np.linalg.norm(x, axis=1)
        dh = np.empty((m, n, n, n))
        eye = np.eye(n)
        small = r < R_TINY
        big = ~small
        if np.any(small):
            third = self._warp.third_at_zero
            if third is None:
                raise DomainError(
                    f"chart metric jacobian within r < {R_TINY:g} of the pole needs an analytic warp"
                )
            c = third / 3.0
            xs = x[small]
            term = np.einsum("mk,ij->mijk", 2.0 * xs, eye)
            term -= np.einsum("ik,mj->mijk", eye, xs)
            term -= np.einsum("jk,mi->mijk", eye, xs)
            dh[small] = c * term
        if np.any(big):
            xb = x[big]
            rb = r[big]
            s, d1, _ = self._warp.evaluate(rb)
            if np.any(s <= 0.0):
                raise DomainError("warp must be positive away from the pole")
            w = (s / rb) ** 2
            wprime = 2.0 * s * (d1 * rb - s) / rb**3
            P = xb[:, :, None] * xb[:, None, :] / (rb**2)[:, None, None]
            dP = (
                np.einsum("ik,mj->mijk", eye, xb) + np.einsum("jk,mi->mijk", eye, xb)
            ) / (rb**2)[:, None, None, None]
            dP -= 2.0 * np.einsum("mi,mj,mk->mijk", xb, xb, xb) / (rb**4)[:, None, None, None]
            radial = (wprime / rb)[:, None, None, None] * np.einsum(
                "mij,mk->mijk", eye[None, :, :] - P, xb
            )
            dh[big] = (1.0 - w)[:, None, None, None] * dP + radial
        return dh[0] if squeeze else dh

