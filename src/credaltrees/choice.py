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
from functools import cached_property, partial
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
    MassFunction,
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


def _members(model: UncertaintyModel, who: str) -> tuple[MassFunction, ...]:
    if not isinstance(model, CredalModel):
        raise ModeUnsupported(f"{who} needs a credal model")
    return model.credal.members


def _dot_rows(
    weights: Sequence[Sequence[Fraction]],
    rows: Sequence[Sequence[Fraction]],
    normalise: bool = False,
) -> list[list[Fraction]]:
    """out[i][j] = sum(w * v for w, v in zip(weights[i], rows[j])), exactly,
    divided by sum(weights[i]) if *normalise*.

    The values, and each weight vector, are scaled to integers over a common
    denominator, so an entry costs one integer dot product and one Fraction
    instead of a Fraction product and sum per term; normalising only
    changes that Fraction's denominator.
    """
    dv = math.lcm(*{v.denominator for row in rows for v in row})
    scaled = [[v.numerator * (dv // v.denominator) for v in row] for row in rows]
    out = []
    for w in weights:
        dw = math.lcm(*{x.denominator for x in w})
        iw = [x.numerator * (dw // x.denominator) for x in w]
        d = dv * (sum(iw) if normalise else dw)
        out.append([Fraction(sum(map(operator.mul, iw, r)), d) for r in scaled])
    return out


def _values_on(xs: Sequence[Gamble], b: Event) -> list[tuple[Fraction, ...]]:
    """Each option's values on b; those on b itself need no lookup per atom."""
    return [x.values if x.scope == b else x.values_on(b) for x in xs]


# --- the option table and the rules over it -----------------------------------


class OptionTable:
    """The options of one choice, compared on one conditioning event b.

    ``rows[j]`` holds option j's values on b.  Under a model, ``weights[m]``
    holds member m's atom masses on b (in ``b.ordered``) and ``mass[m]`` its
    probability of b; a model-free table has neither.  Everything the rules
    read beyond that (member sums, envelopes, row minima) is computed on
    first use and kept.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[Fraction]],
        weights: Sequence[Sequence[Fraction]] = (),
        mass: Sequence[Fraction] = (),
    ):
        self.rows = rows
        self.weights = weights
        self.mass = mass

    @classmethod
    def on(
        cls,
        b: Event,
        rows: Sequence[Sequence[Fraction]],
        members: Sequence[MassFunction] = (),
    ) -> "OptionTable":
        """The table of *rows* on b under *members*.

        Conditioning needs every member to give b positive probability; if
        any gives it zero, the rule as a whole is undefined and this raises
        ``ZeroProbabilityCondition``, whether or not other members give b
        positive probability.
        """
        mass = [p.prob(b) for p in members]
        if any(m == 0 for m in mass):
            if all(m == 0 for m in mass):
                raise ZeroProbabilityCondition(
                    f"conditioning event {b!r} has probability zero"
                )
            raise ZeroProbabilityCondition(
                f"a credal member gives the conditioning event {b!r} probability zero"
            )
        return cls(rows, [[p.mass(a) for a in b.ordered] for p in members], mass)

    @cached_property
    def sums(self) -> list[list[Fraction]]:
        """sums[m][j]: member m's unnormalised sum of option j over b."""
        return _dot_rows(self.weights, self.rows)

    @cached_property
    def columns(self) -> list[tuple[Fraction, ...]]:
        """columns[j]: option j's member sums, one per member."""
        return list(zip(*self.sums))

    @cached_property
    def _conditional(self) -> list[tuple[Fraction, ...]]:
        """Option j's conditional expectation under each member, by j."""
        return list(zip(*_dot_rows(self.weights, self.rows, normalise=True)))

    @cached_property
    def lower(self) -> list[Fraction]:
        """Each option's lower conditional expectation given b."""
        return [min(e) for e in self._conditional]

    @cached_property
    def upper(self) -> list[Fraction]:
        """Each option's upper conditional expectation given b."""
        return [max(e) for e in self._conditional]

    @cached_property
    def mins(self) -> list[Fraction]:
        """Each option's worst value on b."""
        return [min(r) for r in self.rows]


# Every rule takes a table and option indices, and returns the indices it
# keeps, in the given order.


def _argmax(values: Sequence[Fraction], idx: Sequence[int]) -> list[int]:
    top = max(values[j] for j in idx)
    return [j for j in idx if values[j] == top]


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


def _eu_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    # Unnormalised sums have the argmax of the conditional expectations.
    return _argmax(t.sums[0], idx)


def _maximin_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.mins, idx)


def _gamma_maximin_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.lower, idx)


def _gamma_maximax_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.upper, idx)


def _maximality_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    cols = t.columns
    kept = _undominated(
        [cols[j] for j in idx], _member_dominates, operator.itemgetter(0)
    )
    return [idx[p] for p in kept]


def _pointwise_dominance_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    rows = t.rows
    kept = _undominated([rows[j] for j in idx], _pointwise_dominates, sum)
    return [idx[p] for p in kept]


def _interval_dominance_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    lower, upper = t.lower, t.upper
    threshold = max(lower[j] for j in idx)
    return [j for j in idx if upper[j] >= threshold]


def _e_admissible(t: OptionTable, idx: Sequence[int], hull: bool) -> list[int]:
    sums = t.sums
    winners: set[int] = set()
    for s in sums:
        top = max(s[j] for j in idx)
        winners.update(j for j in idx if s[j] == top)
    if hull:
        # A dominated option is never a best response to a mixture, and its
        # constraint is implied by its dominator's: only maxima matter.
        maxima = _maximality_rule(t, idx)
        k = len(sums)
        ones = [Fraction(1)] * k
        for j in maxima:
            if j in winners:
                continue
            rows = [
                ([s[j] - s[jj] for s in sums], Fraction(0))
                for jj in maxima
                if jj != j
            ]
            if ratlp.feasible(k, eqs=[(ones, Fraction(1))], ges=rows):
                winners.add(j)
    return [j for j in idx if j in winners]


# The numeric rules by kind; the canonical scan evaluates these on its own
# tables.  The model-free ones read only the rows.
MODEL_FREE = ("maximin", "pointwise_dominance")
RULES = {
    "eu": _eu_rule,
    "maximin": _maximin_rule,
    "gamma_maximin": _gamma_maximin_rule,
    "gamma_maximax": _gamma_maximax_rule,
    "maximality": _maximality_rule,
    "e_admissible": partial(_e_admissible, hull=False),
    "e_admissible_hull": partial(_e_admissible, hull=True),
    "interval_dominance": _interval_dominance_rule,
    "pointwise_dominance": _pointwise_dominance_rule,
}


def _choose(
    xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event, kind: str
) -> tuple[Gamble, ...]:
    """Guard, table, rule: the kept options in their original order."""
    _guard(xs, b)
    members = () if kind in MODEL_FREE else _members(model, kind)
    table = OptionTable.on(b, _values_on(xs, b), members)
    return tuple(xs[j] for j in RULES[kind](table, range(len(xs))))


def choose_eu(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal conditional expected utility."""
    _guard(xs, b)
    idx = range(len(xs))
    if isinstance(model, JointModel):
        kept = _eu_rule(OptionTable.on(b, _values_on(xs, b), (model.p,)), idx)
    elif isinstance(model, FactoredModel):
        # a factored model values each option on the tree's assessment
        kept = _argmax([precise_gamble_value(model, x, b) for x in xs], idx)
    else:
        raise ModeUnsupported("expected utility needs a joint or factored model")
    return tuple(xs[j] for j in kept)


def choose_maximin(
    xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event
) -> tuple[Gamble, ...]:
    """All options whose worst outcome on the conditioning event is maximal.

    No probabilities are involved; any model passed in is ignored.
    """
    return _choose(xs, model, b, "maximin")


def choose_gamma_maximin(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal lower expectation."""
    return _choose(xs, model, b, "gamma_maximin")


def choose_gamma_maximax(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options of maximal upper expectation."""
    return _choose(xs, model, b, "gamma_maximax")


def choose_maximality(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options not strictly dominated in lower expectation.

    y dominates x when the lower expectation of y - x given b is strictly
    positive, i.e. when every member of the credal set strictly prefers y.
    """
    return _choose(xs, model, b, "maximality")


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
    return _choose(xs, model, b, "e_admissible_hull" if hull else "e_admissible")


def choose_interval_dominance(
    xs: Sequence[Gamble], model: UncertaintyModel, b: Event
) -> tuple[Gamble, ...]:
    """All options whose upper expectation reaches the best lower expectation."""
    return _choose(xs, model, b, "interval_dominance")


def choose_pointwise_dominance(
    xs: Sequence[Gamble], model: Optional[UncertaintyModel], b: Event
) -> tuple[Gamble, ...]:
    """All options not strictly dominated pointwise on the conditioning event.

    Model-free: y dominates x when y is everywhere at least x on b and
    somewhere strictly more.
    """
    return _choose(xs, model, b, "pointwise_dominance")


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


_CHOOSERS = {
    "eu": choose_eu,
    "maximin": choose_maximin,
    "gamma_maximin": choose_gamma_maximin,
    "gamma_maximax": choose_gamma_maximax,
    "maximality": choose_maximality,
    "e_admissible": choose_e_admissible,
    "e_admissible_hull": partial(choose_e_admissible, hull=True),
    "interval_dominance": choose_interval_dominance,
    "pointwise_dominance": choose_pointwise_dominance,
    "imprecise_utility": choose_imprecise_utility,
}


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
        if self.kind == "by_preorder":
            return choose_by_preorder(xs, self.preorder, model, b)
        return _CHOOSERS[self.kind](xs, model, b)

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
