"""Global chart of a rotationally symmetric target.

A model space with warp ``sigma`` is covered by the single chart ``x = r * Theta``
on R^n (r = |x| is the geodesic distance to the pole).  In these coordinates
the metric splits into the radial eigendirection x/r with eigenvalue 1 and
the tangential eigenspace with eigenvalue ``w(r) = (sigma(r)/r)^2``, so two
scalar radial coefficients fix the metric and its derivatives:

    h(x)   = w I + c x x^T,                                  c = (1 - w)/r^2,
    dh_ijk = (w'/r) delta_ij x_k + (c'/r) x_i x_j x_k + c (delta_ik x_j + delta_jk x_i),

with w'/r = 2 sigma (r sigma' - sigma)/r^4 and c'/r = -(w'/r + 2c)/r^2.
Near the pole these are 0/0; for analytic warps we switch to the series
``w = 1 + kappa r^2 + O(r^4)``, kappa = sigma'''(0)/3, below ``R_TINY``:
c = -kappa, w'/r = 2 kappa and c'/r = 0, with no divisions at all.  The flat
warp gives w = 1 and c = w'/r = c'/r = 0 exactly.  Sampled warps cannot
certify the cancellation and refuse evaluation inside the pole neighborhood.
A batch with no point below ``R_TINY`` is evaluated with one warp call and
no scatter; only a batch with pole points fills in the series by mask.

``metric``, ``metric_jacobian`` and ``dist_to_pole`` take the points as an
(m, n) array, one row per point, and refuse any other shape.  ``metric``
and ``metric_jacobian`` build their results entry-major, one row of m
values per entry (i, j[, k]), and return point-major views of that buffer,
not copies.  A caller that wants the point axis last transposes the
view back for free; a caller that needs a C-contiguous point-major array
copies it.

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


def _row_norms(x):
    """|x| of each row: the sum and square root that ``np.linalg.norm(x, axis=1)`` takes, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


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

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def warp(self) -> WarpingFunction:
        return self._warp

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self._dim:
            raise UsageError(f"points must have shape (m, {self._dim})")
        if not np.isfinite(x).all():
            raise DomainError("chart points must be finite")
        return x

    def dist_to_pole(self, x):
        """Geodesic distance to the pole, |x| in this chart, of each row of the (m, n) points ``x``."""
        return _row_norms(self._points(x))

    def _radial(self, r, derivatives=False):
        """w, c = (1-w)/r^2 and, with ``derivatives``, w'/r and c'/r; series-safe."""
        small = r < R_TINY
        pole = bool(small.any())
        if pole and self._warp.third_at_zero is None:
            raise DomainError(f"chart metric within r < {R_TINY:g} of the pole needs an analytic warp")
        rb = r[~small] if pole else r
        w = c = dw = dc = rb  # an all-pole batch evaluates no warp
        if rb.size:
            s, d1, _ = self._warp.evaluate(rb)
            if (s <= 0.0).any():
                raise DomainError("warp must be positive away from the pole")
            w = (s / rb) ** 2
            r2 = rb * rb
            c = (1.0 - w) / r2
            if derivatives:
                dw = 2.0 * s * (d1 * rb - s) / rb**4
                dc = -(dw + 2.0 * c) / r2
        out = (w, c, dw, dc) if derivatives else (w, c)
        if not pole:
            return out
        kappa = self._warp.third_at_zero / 3.0
        series = (1.0 + kappa * r * r, np.full_like(r, -kappa), np.full_like(r, 2.0 * kappa), np.zeros_like(r))
        for full, part in zip(series, out):
            full[~small] = part
        return series[: len(out)]

    def metric(self, x):
        """Metric matrices h = w I + c x x^T of the (m, n) points ``x``; shape (m, n, n).

        The result is a view of an entry-major (n, n, m) buffer (module
        docstring); copy it where a C-contiguous array is needed.
        """
        x = self._points(x)
        m, n = x.shape
        w, c = self._radial(_row_norms(x))
        xt = np.ascontiguousarray(x.T)  # entry-major: each (i, j) is one row over the m points
        h = c * (xt[:, None] * xt)
        h.reshape(n * n, m)[:: n + 1] += w
        return h.transpose(2, 0, 1)

    def metric_jacobian(self, x):
        """Derivatives dh[i,j,k] = d h_ij / d x^k (closed form in the module
        docstring); shape (m, n, n, n).

        The result is a view of an entry-major (n, n, n, m) buffer, as in
        ``metric``.
        """
        x = self._points(x)
        m, n = x.shape
        _, c, dw, dc = self._radial(_row_norms(x), derivatives=True)
        xt = np.ascontiguousarray(x.T)  # entry-major, as in metric
        dh = (dc * (xt[:, None] * xt))[:, :, None] * xt
        dh.reshape(n * n, n, m)[:: n + 1] += dw * xt  # i = j
        cx = c * xt
        for i in range(n):
            for j in range(n):
                if i != j:
                    dh[i, j, i] += cx[j]
                    dh[i, j, j] += cx[i]
            dh[i, i, i] += cx[i] + cx[i]  # the two c terms as one sum
        return dh.transpose(3, 0, 1, 2)
