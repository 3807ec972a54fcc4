"""Exact mixture feasibility over the rationals.

`feasible` decides whether some probability vector weighs every given
coefficient row to a nonnegative total: for hull E-admissibility, whether
an option is a best response to some mixture of the credal members.  It is
a phase-1 simplex on `fractions.Fraction` tableaus with Bland's rule, which
guarantees termination.  The systems have a handful of variables, so no
effort is spent on sparsity or scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def feasible(n_vars: int, ges: Sequence[Sequence[Fraction]]) -> bool:
    """Is there x >= 0 with sum(x) = 1 and a . x >= 0 for every row a of *ges*?

    Coefficients may be ints or Fractions; feasibility is decided exactly.
    """
    # columns: x, one slack per row, the artificial.  The simplex row starts
    # on the artificial, each row -a . x + s = 0 on its own slack.
    m = len(ges) + 1
    total = n_vars + m
    art = total - 1
    rows = [[Fraction(1)] * n_vars + [Fraction(0)] * (m - 1) + [Fraction(1)]]
    for i, coeffs in enumerate(ges):
        row = [-Fraction(c) for c in coeffs]
        if len(row) != n_vars:
            raise ValueError("coefficient row length does not match n_vars")
        row += [Fraction(0)] * m
        row[n_vars + i] = Fraction(1)
        rows.append(row)
    rhs = [Fraction(1)] + [Fraction(0)] * (m - 1)
    basis = [art, *range(n_vars, art)]

    # phase-1: minimise the artificial; price the simplex row out
    obj = [Fraction(-1)] * n_vars + [Fraction(0)] * m

    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best: Fraction | None = None
        for i in range(m):
            if rows[i][entering] > 0:
                ratio = rhs[i] / rows[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best, leaving = ratio, i
        if leaving is None:
            raise RuntimeError("phase-1 simplex became unbounded")
        pivot = rows[leaving][entering]
        rows[leaving] = [c / pivot for c in rows[leaving]]
        rhs[leaving] /= pivot
        for i in range(m):
            if i != leaving and rows[i][entering] != 0:
                f = rows[i][entering]
                rows[i] = [c - f * p for c, p in zip(rows[i], rows[leaving])]
                rhs[i] -= f * rhs[leaving]
        if obj[entering] != 0:
            f = obj[entering]
            for j in range(total):
                obj[j] -= f * rows[leaving][j]
        basis[leaving] = entering

    # nonbasic variables sit at zero, so the objective is the artificial's value
    return art not in basis or rhs[basis.index(art)] == 0
