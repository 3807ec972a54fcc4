"""Exact feasibility testing for tiny linear programs over the rationals.

This is a phase-1 simplex on `fractions.Fraction` tableaus with Bland's
rule, which guarantees termination.  The systems solved here are mixture
weight problems with a handful of variables, so no effort is spent on
sparsity or scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def feasible(
    n_vars: int,
    eqs: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    ges: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> bool:
    """Is there x >= 0 with A_eq x = b_eq and A_ge x >= b_ge?

    Coefficients may be ints or Fractions; feasibility is decided exactly.
    """
    # sense: 0 equality (artificial), +1 ">=" (surplus + artificial),
    # -1 "<=" after flipping a ">=" of rhs <= 0 (slack, basic from the start)
    prepared: list[tuple[list[Fraction], Fraction, int]] = []
    for coeffs, r in eqs:
        row = [Fraction(c) for c in coeffs]
        r = Fraction(r)
        if len(row) != n_vars:
            raise ValueError("coefficient row length does not match n_vars")
        if r < 0:
            row, r = [-c for c in row], -r
        prepared.append((row, r, 0))
    for coeffs, r in ges:
        row = [Fraction(c) for c in coeffs]
        r = Fraction(r)
        if len(row) != n_vars:
            raise ValueError("coefficient row length does not match n_vars")
        if r <= 0:
            prepared.append(([-c for c in row], -r, -1))
        else:
            prepared.append((row, r, +1))

    m = len(prepared)
    if m == 0:
        return True

    n_slack = sum(1 for _, _, sense in prepared if sense != 0)
    n_art = sum(1 for _, _, sense in prepared if sense != -1)
    total = n_vars + n_slack + n_art

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    basis: list[int] = []
    slack_at = 0
    art_at = 0
    for row, r, sense in prepared:
        full = row + [Fraction(0)] * (n_slack + n_art)
        if sense != 0:
            full[n_vars + slack_at] = Fraction(1) if sense == -1 else Fraction(-1)
            own_slack = n_vars + slack_at
            slack_at += 1
        if sense == -1:
            basis.append(own_slack)
        else:
            full[n_vars + n_slack + art_at] = Fraction(1)
            basis.append(n_vars + n_slack + art_at)
            art_at += 1
        rows.append(full)
        rhs.append(r)

    def is_artificial(col: int) -> bool:
        return col >= n_vars + n_slack

    # phase-1: minimise the sum of artificials; price the initial basis out
    obj = [Fraction(0)] * total
    for j in range(n_vars + n_slack, total):
        obj[j] = Fraction(1)
    for i in range(m):
        if is_artificial(basis[i]):
            for j in range(total):
                obj[j] -= rows[i][j]

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

    # nonbasic variables sit at zero, so the objective value is the sum of
    # the basic artificials
    value = sum(
        (rhs[i] for i in range(m) if is_artificial(basis[i])), Fraction(0)
    )
    return value == 0
