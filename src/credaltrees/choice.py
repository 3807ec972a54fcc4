"""Choice functions: rules that pick the acceptable gambles out of a set.

Every ``choose_*`` function takes the options in order, an uncertainty
model and a nonempty conditioning event, and returns a nonempty subset of
the options in their original order.  Options are compared only through
their values on the conditioning event.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import ratlp
from .errors import (
    EmptyInput,
    ModeUnsupported,
    ScopeMismatch,
    ZeroProbabilityCondition,
)
from .trees import Event, Gamble
from .uncertainty import (
    CredalModel,
    FactoredModel,
    JointModel,
    UncertaintyModel,
    UtilityModel,
    expectation,
    precise_gamble_value,
)

KINDS = (
    "eu",
    "maximin",
    "gamma_maximin",
    "gamma_maximax",
    "maximality",
    "e_admissible",
    "e_admissible_hull",
    "interval_dominance",
    "pointwise_dominance",
    "imprecise_utility",
    "by_preorder",
)


def _guard(xs: Sequence[Gamble], b: Event, numeric: bool = True) -> None:
    if not xs:
        raise EmptyInput("no options to choose from")
    if b.is_empty:
        raise ZeroProbabilityCondition("conditioning event is empty")
    for x in xs:
        if not b <= x.scope:
            raise ScopeMismatch(
                "a gamble's scope does not cover the conditioning event"
            )
        if numeric and not x.is_numeric:
            raise ValueError("this choice function needs numeric gambles")


def _argmax(xs: Sequence[Gamble], values: Sequence[Fraction]) -> tuple[Gamble, ...]:
    top = max(values)
    return tuple(x for x, v in zip(xs, values) if v == top)


def _credal(model: UncertaintyModel, who: str) -> CredalModel:
    if not isinstance(model, CredalModel):
        raise ModeUnsupported(f"{who} needs a credal model")
    return model


def _dot_rows(
    weights: Sequence[Sequence[Fraction]], rows: Sequence[Sequence[Fraction]]
) -> list[list[Fraction]]:
    """out[i][j] = sum(w * v for w, v in zip(weights[i], rows[j])), exactly.

    The values, and each weight vector, are scaled to integers over a common
    denominator, so an entry costs one integer dot product and one Fraction
    instead of a Fraction product and sum per term.
    """
    dv = math.lcm(*{v.denominator for row in rows for v in row})
    scaled = [[v.numerator * (dv // v.denominator) for v in row] for row in rows]
    out = []
    for w in weights:
        dw = math.lcm(*{x.denominator for x in w})
        iw = [x.numerator * (dw // x.denominator) for x in w]
        d = dv * dw
        out.append([Fraction(sum(map(operator.mul, iw, r)), d) for r in scaled])
    return out


def _values_on(xs: Sequence[Gamble], b: Event) -> list[tuple[Fraction, ...]]:
    """Each option's values on b; those on b itself need no lookup per atom."""
    return [x.values if x.scope == b else x.values_on(b) for x in xs]


def _member_sums(
    model: CredalModel, xs: Sequence[Gamble], b: Event, conditional: bool = False
) -> list[list[Fraction]]:
    """sums[i][j] = sum over b of member_i's mass times xs[j]; exact and
    unnormalised unless *conditional*, which divides by member_i's
    probability of b; with a zero-probability guard per member."""
    weights = []
    for p in model.credal.members:
        pb = p.prob(b)
        if pb == 0:
            raise ZeroProbabilityCondition(
                f"a credal member gives the conditioning event {b!r} probability zero"
            )
        masses = [p.mass(a) for a in b.ordered]
        weights.append([m / pb for m in masses] if conditional else masses)
    return _dot_rows(weights, _values_on(xs, b))


def choose_eu(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal conditional expected utility."""
    _guard(xs, b)
    if isinstance(model, JointModel):
        p = model.p
        if p.prob(b) == 0:
            raise ZeroProbabilityCondition(
                f"conditioning event {b!r} has probability zero"
            )
        # Unnormalised sums have the argmax of the conditional expectations.
        values = _dot_rows([[p.mass(a) for a in b.ordered]], _values_on(xs, b))[0]
    elif isinstance(model, FactoredModel):
        values = [precise_gamble_value(model, x, b) for x in xs]
    else:
        raise ModeUnsupported("expected utility needs a joint or factored model")
    return _argmax(xs, values)


def choose_maximin(
    xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event
) -> tuple[Gamble, ...]:
    """All options whose worst outcome on the conditioning event is maximal.

    No probabilities are involved; any model passed in is ignored.
    """
    _guard(xs, b)
    values = [min(v) for v in _values_on(xs, b)]
    return _argmax(xs, values)


def choose_gamma_maximin(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal lower expectation."""
    _guard(xs, b)
    model = _credal(model, "gamma_maximin")
    values = [min(e) for e in zip(*_member_sums(model, xs, b, conditional=True))]
    return _argmax(xs, values)


def choose_gamma_maximax(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal upper expectation."""
    _guard(xs, b)
    model = _credal(model, "gamma_maximax")
    values = [max(e) for e in zip(*_member_sums(model, xs, b, conditional=True))]
    return _argmax(xs, values)


def _undominated(
    rows: Sequence, dominates: Callable, key: Callable
) -> list[int]:
    """Indices of the rows no other row dominates, ascending.

    *dominates* must be a strict partial order and *key* must strictly
    increase along it.  Scanning the rows by falling key, a row is kept
    unless a row kept before it dominates it: every dominated row has an
    undominated dominator, and that dominator comes first.
    """
    keys = [key(r) for r in rows]
    maxima: list[int] = []
    for j in sorted(range(len(rows)), key=keys.__getitem__, reverse=True):
        if not any(dominates(rows[m], rows[j]) for m in maxima):
            maxima.append(j)
    return sorted(maxima)


def _member_dominates(y: Sequence[Fraction], x: Sequence[Fraction]) -> bool:
    """Does every member strictly prefer y to x?  Rows hold member sums."""
    return all(a > c for a, c in zip(y, x))


def _pointwise_dominates(y: Sequence[Fraction], x: Sequence[Fraction]) -> bool:
    """Is y everywhere at least x and somewhere strictly more?"""
    return y != x and all(a >= c for a, c in zip(y, x))


def _maximal(sums: list[list[Fraction]]) -> list[int]:
    """Indices of the options no other option dominates memberwise."""
    return _undominated(list(zip(*sums)), _member_dominates, lambda r: r[0])


def choose_maximality(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options not strictly dominated in lower expectation.

    y dominates x when the lower expectation of y - x given b is strictly
    positive, i.e. when every member of the credal set strictly prefers y.
    """
    _guard(xs, b)
    model = _credal(model, "maximality")
    return tuple(xs[j] for j in _maximal(_member_sums(model, xs, b)))


def choose_e_admissible(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event, hull: bool = False
) -> tuple[Gamble, ...]:
    """All options optimal under some member of the credal set.

    With ``hull=True`` optimality under some finite mixture of the members
    counts as well; that feasibility question is decided exactly by a
    phase-1 simplex.  The mixture condition weights each member's
    conditional comparison by its probability of the conditioning event,
    which is what conditioning a mixture on b actually does; on the whole
    space the weights are all 1 and the two readings coincide.
    """
    _guard(xs, b)
    model = _credal(model, "e_admissible")
    sums = _member_sums(model, xs, b)
    k = len(sums)

    winners: set[int] = set()
    for i in range(k):
        top = max(sums[i])
        winners.update(j for j, v in enumerate(sums[i]) if v == top)
    if hull:
        # A dominated option is never a best response to a mixture, and its
        # constraint is implied by its dominator's: only maxima matter.
        maxima = _maximal(sums)
        ones = [Fraction(1)] * k
        for j in maxima:
            if j in winners:
                continue
            rows = [
                ([sums[i][j] - sums[i][jj] for i in range(k)], Fraction(0))
                for jj in maxima
                if jj != j
            ]
            if ratlp.feasible(k, eqs=[(ones, Fraction(1))], ges=rows):
                winners.add(j)
    return tuple(x for j, x in enumerate(xs) if j in winners)


def choose_interval_dominance(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options whose upper expectation reaches the best lower expectation."""
    _guard(xs, b)
    model = _credal(model, "interval_dominance")
    expectations = list(zip(*_member_sums(model, xs, b, conditional=True)))
    threshold = max(min(e) for e in expectations)
    return tuple(x for x, e in zip(xs, expectations) if max(e) >= threshold)


def choose_pointwise_dominance(
    xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event
) -> tuple[Gamble, ...]:
    """All options not strictly dominated pointwise on the conditioning event.

    Model-free: y dominates x when y is everywhere at least x on b and
    somewhere strictly more.
    """
    _guard(xs, b)
    rows = _values_on(xs, b)
    return tuple(xs[j] for j in _undominated(rows, _pointwise_dominates, sum))


def choose_imprecise_utility(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options optimal under some candidate utility function.

    The options carry reward labels; each utility function turns them into
    numeric gambles, which are compared by conditional expectation under
    the model's chance part, or directly when there is none (in which case
    the relabelled options must be constant on the conditioning event).
    """
    _guard(xs, b, numeric=False)
    if not isinstance(model, UtilityModel):
        raise ModeUnsupported("imprecise_utility needs a utility model")
    for x in xs:
        if x.is_numeric:
            raise ValueError("imprecise_utility expects label gambles")

    winners: set[int] = set()
    for i in range(len(model.utilities.functions)):
        numeric = [model.utilities.apply(i, x) for x in xs]
        if model.chance is None:
            values = []
            for g in numeric:
                vals = set(g.values_on(b))
                if len(vals) != 1:
                    raise ModeUnsupported(
                        "a utility model without a chance part can only"
                        " compare options that are constant on the"
                        " conditioning event"
                    )
                values.append(vals.pop())
        elif isinstance(model.chance, JointModel):
            values = [expectation(model.chance.p, g, b) for g in numeric]
        else:
            raise ModeUnsupported(
                "imprecise_utility supports a joint chance part here; value"
                " factored assessments at the strategy level instead"
            )
        top = max(values)
        winners.update(j for j, v in enumerate(values) if v == top)
    return tuple(x for j, x in enumerate(xs) if j in winners)


Preorder = Callable[[Gamble, Gamble, Optional[UncertaintyModel], Event], bool]


def choose_by_preorder(
    xs: Sequence[Gamble],
    geq: Preorder,
    model: Optional[UncertaintyModel],
    b: Event,
    validate: bool = False,
) -> tuple[Gamble, ...]:
    """All options maximal under a caller-supplied total preorder.

    ``geq(x, y, model, b)`` must say whether x is at least as good as y.
    With ``validate=True`` reflexivity, completeness and transitivity are
    checked on the given options first, which is affordable because inputs
    are finite.
    """
    _guard(xs, b, numeric=False)
    if validate:
        for x in xs:
            if not geq(x, x, model, b):
                raise ValueError("comparator is not reflexive")
        for x in xs:
            for y in xs:
                if not (geq(x, y, model, b) or geq(y, x, model, b)):
                    raise ValueError("comparator is not complete")
        for x in xs:
            for y in xs:
                for z in xs:
                    if (
                        geq(x, y, model, b)
                        and geq(y, z, model, b)
                        and not geq(x, z, model, b)
                    ):
                        raise ValueError("comparator is not transitive")
    return tuple(
        x for x in xs if all(geq(x, y, model, b) for y in xs)
    )


@dataclass(frozen=True, eq=False)
class ChoiceFunction:
    """A named choice rule, dispatching to the matching ``choose_*``."""

    kind: str
    preorder: Optional[Preorder] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown choice kind {self.kind!r}")
        if self.kind == "by_preorder" and self.preorder is None:
            raise ValueError("by_preorder needs a comparator")

    def choose(
        self, xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event
    ) -> tuple[Gamble, ...]:
        if self.kind == "eu":
            return choose_eu(xs, model, b)
        if self.kind == "maximin":
            return choose_maximin(xs, model, b)
        if self.kind == "gamma_maximin":
            return choose_gamma_maximin(xs, model, b)
        if self.kind == "gamma_maximax":
            return choose_gamma_maximax(xs, model, b)
        if self.kind == "maximality":
            return choose_maximality(xs, model, b)
        if self.kind == "e_admissible":
            return choose_e_admissible(xs, model, b)
        if self.kind == "e_admissible_hull":
            return choose_e_admissible(xs, model, b, hull=True)
        if self.kind == "interval_dominance":
            return choose_interval_dominance(xs, model, b)
        if self.kind == "pointwise_dominance":
            return choose_pointwise_dominance(xs, model, b)
        if self.kind == "imprecise_utility":
            return choose_imprecise_utility(xs, model, b)
        if self.kind == "by_preorder":
            return choose_by_preorder(xs, self.preorder, model, b)
        raise ValueError(f"unknown choice kind {self.kind!r}")

    @property
    def is_value_based(self) -> bool:
        """Does this rule maximise a single value per option?

        These are exactly the rules induced by a total preorder, which is
        what makes them insensitive to splitting the option set.
        """
        return self.kind in (
            "eu",
            "maximin",
            "gamma_maximin",
            "gamma_maximax",
            "by_preorder",
        )
