"""Independent expectations the benchmark checks the program's outputs against.

Nothing here imports ``wakimoto``: the case table, the Schur values and the
basis counts are recomputed from their definitions, so a fault in the
package cannot also hide in the expected value.
"""

from __future__ import annotations

import math
from fractions import Fraction


def partitions(n: int, max_part: int | None = None):
    """Partitions of n as non-increasing tuples of positive integers."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for p in range(top, 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def schur_at_minus_chi(ell: int, chi: dict[int, Fraction]) -> Fraction:
    """S_ell(x) with x_n = -chi_{-n}, as a sum over the partitions of ell.

    From exp(sum_n x_n y^n / n) = sum_r S_r y^r, the coefficient of y^ell is
    the sum over partitions with k_n parts equal to n of
    prod_n (x_n / n)^{k_n} / k_n!.
    """
    total = Fraction(0)
    for lam in partitions(ell):
        term = Fraction(1)
        for n in set(lam):
            k = lam.count(n)
            term *= (Fraction(-chi.get(-n, 0)) / n) ** k / math.factorial(k)
        total += term
    return total


def expected_verdict(chi: dict[int, Fraction]) -> tuple[str, str]:
    """(status, case) from the paper's case table."""
    if any(m > 0 and c for m, c in chi.items()):
        return "irreducible", "i"
    chi0 = Fraction(chi.get(0, 0))
    if chi0.denominator != 1 or chi0 == 1:
        return "irreducible", "ii"
    ell = int(chi0) - 1
    if ell < 0:
        return "reducible", "neg_ell"
    if schur_at_minus_chi(ell, chi) != 0:
        return "irreducible", "iii"
    return "reducible", "schur_zero"


def vacuum_coefficient(ell: int, chi: dict[int, Fraction]) -> Fraction:
    """(-1)^ell ell! S_ell(-chi), the vacuum coefficient of the lowering word."""
    return (-1) ** ell * math.factorial(ell) * schur_at_minus_chi(ell, chi)


def _count_by_charge(factors, budget: int, lo: int, hi: int, charge_cap: int) -> int:
    """Count products of the given factors with total weight <= budget.

    Each factor is (weight, charge, max multiplicity); the generating
    function is a product over factors, truncated in weight and, while
    building it, in |charge| <= charge_cap.
    """
    poly = {(0, 0): 1}
    for w, c, mult in factors:
        nxt: dict[tuple[int, int], int] = {}
        for (w0, c0), cnt in poly.items():
            k = 0
            while k <= mult and w0 + k * w <= budget and abs(c0 + k * c) <= charge_cap:
                key = (w0 + k * w, c0 + k * c)
                nxt[key] = nxt.get(key, 0) + cnt
                k += 1
        poly = nxt
    return sum(cnt for (_, c), cnt in poly.items() if lo <= c <= hi)


def charged_dimension(weight_cutoff: Fraction, lo: int, hi: int) -> int:
    """Charged fermion monomials of weight <= cutoff and charge in [lo, hi].

    Generating function prod_{r >= 1/2} (1 + y^-1 q^r) prod_{r >= 3/2} (1 + y q^r),
    counted in doubled weight.
    """
    budget = math.floor(2 * Fraction(weight_cutoff))
    factors = [(d, -1, 1) for d in range(1, budget + 1, 2)]
    factors += [(d, +1, 1) for d in range(3, budget + 1, 2)]
    return _count_by_charge(factors, budget, lo, hi, charge_cap=budget + 1)


def boson_dimension(weight_cutoff: int, lo: int, hi: int) -> int:
    """Boson monomials of weight <= cutoff and charge in [lo, hi].

    Generating function prod_{n >= 1} 1/(1 - y^-1 q^n) prod_{n >= 0} 1/(1 - y q^n).
    The weightless a*(0) is bounded by the charge: at most hi + cutoff copies.
    """
    w = int(weight_cutoff)
    cap = w + max(abs(lo), abs(hi))
    factors = [(n, -1, w) for n in range(1, w + 1)]
    factors += [(n, +1, w) for n in range(1, w + 1)]
    factors.append((0, +1, cap))
    return _count_by_charge(factors, w, lo, hi, charge_cap=cap)


def self_test() -> None:
    """Check the oracle against values computed by hand; raise on a mismatch."""
    f = Fraction
    cases = [
        # S_1(x) = x_1, S_2 = x_1^2/2 + x_2/2, S_3 = x_1^3/6 + x_1 x_2/2 + x_3/3.
        ("S_1", schur_at_minus_chi(1, {-1: f(3)}), f(-3)),
        ("S_2", schur_at_minus_chi(2, {-1: f(1), -2: f(2)}), f(-1, 2)),
        ("S_3", schur_at_minus_chi(3, {-1: f(1), -2: f(1), -3: f(3)}), f(-2, 3)),
        # {0: 3, -2: 1}: S_2 = -1/2, so the vacuum coefficient is 2! * (-1/2).
        ("vacuum coefficient", vacuum_coefficient(2, {0: f(3), -2: f(1)}), f(-1)),
        ("case schur_zero", expected_verdict({0: f(3), -1: f(1), -2: f(1)}),
         ("reducible", "schur_zero")),
        ("case schur_zero l=1", expected_verdict({0: f(2)}), ("reducible", "schur_zero")),
        ("case ii", expected_verdict({0: f(1)}), ("irreducible", "ii")),
        ("case neg_ell", expected_verdict({}), ("reducible", "neg_ell")),
        ("case i", expected_verdict({1: f(1), 0: f(-3)}), ("irreducible", "i")),
        # Boson windows: 72 and 151 states at weight <= 3 and <= 4, |charge| <= 3;
        # 24 and 53 at weight <= 2 and <= 3, |charge| <= 2.
        ("boson w<=3", boson_dimension(3, -3, 3), 72),
        ("boson w<=4", boson_dimension(4, -3, 3), 151),
        ("boson w<=2 |c|<=2", boson_dimension(2, -2, 2), 24),
        ("boson w<=3 |c|<=2", boson_dimension(3, -2, 2), 53),
        # Charged fermions up to weight 3/2: |0>, Psi-(-1/2), Psi-(-3/2), Psi+(-3/2);
        # weight 2 adds Psi-(-3/2)Psi-(-1/2) and Psi-(-1/2)Psi+(-3/2).
        ("charged w<=3/2", charged_dimension(f(3, 2), -3, 3), 4),
        ("charged w<=2", charged_dimension(f(2), -3, 3), 6),
    ]
    for what, got, want in cases:
        if got != want:
            raise AssertionError(f"oracle self-test {what}: got {got}, want {want}")
