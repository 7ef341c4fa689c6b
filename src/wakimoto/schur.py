"""Elementary Schur polynomials S_r(x_1, ..., x_r) over the rationals.

They are defined by the generating identity

    exp( sum_{n>=1} (x_n / n) y^n ) = sum_{r>=0} S_r(x_1, ..., x_r) y^r.

Differentiating in y and matching coefficients gives the production
recurrence ``r S_r = sum_{k=1}^{r} x_k S_{r-k}``, the only route the engine
needs.  The tests check it against two independent routes: the truncated
series exponential and a determinant closed form.

The classifier evaluates S_ell at the negated tail of a twist:
``S_ell(-chi) := S_ell(-chi_{-1}, -chi_{-2}, ...)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .scalars import ChiSeries

__all__ = ["schur_rec", "schur_at_minus_chi"]


def _as_fracs(xs: Sequence) -> list[Fraction]:
    return [x if isinstance(x, Fraction) else Fraction(x) for x in xs]


def schur_rec(r: int, xs: Sequence) -> Fraction:
    """S_r via the recurrence ``k S_k = sum_{j<=k} x_j S_{k-j}``; S_0 = 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    vals = _as_fracs(xs)

    def x(j: int) -> Fraction:
        return vals[j - 1] if j - 1 < len(vals) else Fraction(0)

    series = [Fraction(1)]
    for k in range(1, r + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += x(j) * series[k - j]
        series.append(acc / k)
    return series[r]


def schur_at_minus_chi(ell: int, chi: ChiSeries) -> Fraction:
    """Evaluate ``S_ell(-chi_{-1}, ..., -chi_{-ell})`` exactly."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    xs = [-chi.coeff(-k) for k in range(1, ell + 1)]
    return schur_rec(ell, xs)
