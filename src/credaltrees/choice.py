"""Choice functions: rules that pick the acceptable gambles out of a set.

`ChoiceFunction.choose` takes the options in order, an uncertainty model
and a nonempty conditioning event, and returns a nonempty subset of the
options in their original order.  Options are compared only through their
values on the conditioning event: the rules of `RULES` read them as integers
over one denominator (`OptionTable`), or read a model's expectations of them.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from . import ratlp
from .errors import (
    EmptyInput,
    ModeUnsupported,
    ScopeMismatch,
    ZeroProbabilityCondition,
)
from .trees import Event, Gamble, scaled
from .uncertainty import (
    CredalModel,
    FactoredModel,
    JointModel,
    MassFunction,
    UncertaintyModel,
    UtilityModel,
    precise_gamble_value,
    utility_values,
)

def _guard(xs: "Sequence[Gamble] | OptionTable", b: Event, numeric: bool = True) -> None:
    if not xs:
        raise EmptyInput("no options to choose from")
    if b.is_empty:
        raise ZeroProbabilityCondition("conditioning event is empty")
    if isinstance(xs, OptionTable):
        if xs.rows and set(map(len, xs.rows)) != {len(b)}:
            raise ScopeMismatch("an option row does not cover the conditioning event")
        return
    for x in xs:
        if not b <= x.scope:
            raise ScopeMismatch(
                "a gamble's scope does not cover the conditioning event"
            )
        if numeric and not x.is_numeric:
            raise ValueError("this choice function needs numeric gambles")


# --- the option table and the rules over it -----------------------------------


def _require_positive_mass(b: Event, totals: Sequence[int]) -> None:
    """Raise ``ZeroProbabilityCondition`` unless each member's integer weight
    total on b in *totals* is positive: conditioning on b is undefined for
    the whole rule if any member gives b zero."""
    if 0 in totals:
        if any(totals):
            raise ZeroProbabilityCondition(
                f"a credal member gives the conditioning event {b!r} probability zero"
            )
        raise ZeroProbabilityCondition(f"conditioning event {b!r} has probability zero")


class OptionTable:
    """The options of one choice, compared on one conditioning event b.

    ``rows[j]`` holds option j's values on b, in ``b.ordered``, as integers
    times one positive factor common to every row, which no rule of `RULES`
    needs: each keeps the same options when every row is scaled.  The
    model-free rules read only the rows.  ``vectors[j]`` holds option j's
    member-sum vector, member m's mass-weighted sum of the option over b,
    and ``totals[m]`` member m's mass of b, both times a positive factor of
    the member's own, which changes no choice (the rules compare sums within
    one member) and no hull LP's feasibility (it scales an LP column).
    Envelopes and row minima are computed from these on first use, in
    integers, and kept.

    A table of vectors alone (a strategy table's) has no rows: its options
    are its vectors, and `ChoiceFunction.choose` returns the kept ones.  So
    has a table of values alone (a factored model's expectation of each
    option, or a utility model's, one per function), which has no totals
    either: only ``eu`` and ``e_admissible`` apply to it.
    """

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        vectors: Sequence[Sequence] = (),
        totals: Sequence[int] = (),
    ):
        self.rows = rows
        self.vectors = vectors
        self.totals = totals

    def __len__(self) -> int:
        """The number of options."""
        return len(self.rows or self.vectors)

    @classmethod
    def of(
        cls, xs: Sequence[Gamble], b: Event, members: Sequence[MassFunction] = ()
    ) -> "OptionTable":
        """The table `on` b of numeric gambles' values on b, scaled by the
        least common multiple of their denominators."""
        values = [x.values if x.scope == b else x.values_on(b) for x in xs]
        d = math.lcm(*{v.denominator for row in values for v in row})
        return cls.on(b, [tuple(scaled(v, d) for v in row) for row in values], members)

    @classmethod
    def on(
        cls,
        b: Event,
        rows: Sequence[Sequence[int]],
        members: Sequence[MassFunction] = (),
    ) -> "OptionTable":
        """The table of *rows* on b under *members*.

        Each member's weights are its masses on b times their least common
        denominator over the whole space (`MassFunction._integers`), so
        they are integers already.  Raises as `_require_positive_mass` does
        where a member gives b probability zero.
        """
        weights = []
        if members:
            position = b.space.position
            at = [position(a) for a in b.ordered]
            for p in members:
                if p.space is not b.space and p.space != b.space:
                    raise ValueError("event lives in a different possibility space")
                masses = p._integers[1]
                weights.append([masses[i] for i in at])
        totals = [sum(w) for w in weights]
        _require_positive_mass(b, totals)
        vectors = [tuple(sum(map(operator.mul, w, r)) for w in weights) for r in rows]
        return cls(rows, vectors, totals)

    @cached_property
    def scale(self) -> int:
        """The factor by which ``lower`` and ``upper`` exceed the
        conditional expectations of the rows: the least common multiple of
        the members' integer weight totals."""
        return math.lcm(*self.totals)

    @cached_property
    def _conditional(self) -> list[tuple[int, ...]]:
        """Option j's conditional expectation under each member, by j, times
        ``scale``."""
        s = self.scale
        factors = [s // t for t in self.totals]
        return [tuple(map(operator.mul, v, factors)) for v in self.vectors]

    @cached_property
    def lower(self) -> list[int]:
        """Each option's lower conditional expectation given b, times
        ``scale``."""
        return [min(e) for e in self._conditional]

    @cached_property
    def upper(self) -> list[int]:
        """Each option's upper conditional expectation given b, times
        ``scale``."""
        return [max(e) for e in self._conditional]

    @cached_property
    def mins(self) -> list[int]:
        """Each option's worst value on b."""
        return [min(r) for r in self.rows]


# Every rule takes a table and option indices, and returns the indices it
# keeps, in the given order.


def _argmax(values: Sequence, idx: Sequence[int]) -> list[int]:
    vals = [values[j] for j in idx]
    top = max(vals)
    return [j for j, v in zip(idx, vals) if v == top]


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


def _maximin_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.mins, idx)


def _gamma_maximin_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.lower, idx)


def _gamma_maximax_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    return _argmax(t.upper, idx)


def _maximality_rule(t: OptionTable, idx: Sequence[int]) -> list[int]:
    vectors = t.vectors
    kept = _undominated(
        [vectors[j] for j in idx], _member_dominates, operator.itemgetter(0)
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


def _e_admissible(t: OptionTable, idx: Sequence[int], hull: bool = False) -> list[int]:
    vectors = t.vectors
    # each member's best sum: an option that reaches one is a member's winner
    tops = [max(s) for s in zip(*(vectors[j] for j in idx))]
    winners = {j for j in idx if any(map(operator.eq, vectors[j], tops))}
    if hull:
        # A dominated option is never a best response to a mixture, and its
        # constraint is implied by its dominator's: only maxima matter.
        maxima = _maximality_rule(t, idx)
        for j in maxima:
            if j in winners:
                continue
            # is j a best response to some mixture: do some weights give
            # every difference v_j - v_jj a nonnegative total?
            rows = [list(map(operator.sub, vectors[j], vectors[jj])) for jj in maxima if jj != j]
            if ratlp.feasible(len(tops), ges=rows):
                winners.add(j)
    return [j for j in idx if j in winners]


# The numeric rules by kind; `ChoiceFunction.choose` and the canonical scan
# evaluate these on their tables.
RULES = {
    # all options of maximal conditional expected utility: E-admissibility
    # under the one member (Levi, The Enterprise of Knowledge, 1980)
    "eu": _e_admissible,
    # all options whose worst outcome on b is maximal
    "maximin": _maximin_rule,
    # all options of maximal lower expectation
    "gamma_maximin": _gamma_maximin_rule,
    # all options of maximal upper expectation
    "gamma_maximax": _gamma_maximax_rule,
    # all options not strictly dominated in lower expectation: y dominates x
    # when the lower expectation of y - x given b is strictly positive, i.e.
    # when every member of the credal set strictly prefers y
    "maximality": _maximality_rule,
    # all options optimal under some member of the credal set
    "e_admissible": _e_admissible,
    # ... or under some finite mixture of the members: x_j is kept when some
    # w >= 0 with sum 1 gives sum_m w_m P_m(b) (E_m[x_j|b] - E_m[x|b]) >= 0
    # for every option x, decided exactly by `ratlp.feasible`.  Weighting
    # each member's conditional comparison by its probability of b is what
    # conditioning a mixture on b does (on the whole space the weights are
    # all 1 and the two readings coincide)
    "e_admissible_hull": partial(_e_admissible, hull=True),
    # all options whose upper expectation reaches the best lower expectation
    "interval_dominance": _interval_dominance_rule,
    # all options not strictly dominated pointwise on b: y dominates x when
    # y is everywhere at least x on b and somewhere strictly more
    "pointwise_dominance": _pointwise_dominance_rule,
}
# The rules that read no model: any model passed in is ignored.
MODEL_FREE = ("maximin", "pointwise_dominance")
KINDS = (*RULES, "imprecise_utility", "by_preorder")


Preorder = Callable[[Gamble, Gamble, UncertaintyModel | None, Event], bool]


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
    """A named choice rule: `choose` applies it, `row_members` says what it
    reads."""

    kind: str
    preorder: Optional[Preorder] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown choice kind {self.kind!r}")
        if self.kind == "by_preorder" and self.preorder is None:
            raise ValueError("by_preorder needs a comparator")

    def choose(
        self,
        xs: "Sequence[Gamble] | OptionTable",
        model: Optional[UncertaintyModel],
        b: Event,
    ) -> tuple:
        """The options the rule keeps, in their order.

        *xs* are gambles, or, where `row_members` is not None, an
        `OptionTable` on b under those members, whose kept rows are then
        returned, or its kept ``vectors`` where it has no rows.  Every kind
        but ``by_preorder`` ends in one `RULES` function on one
        `OptionTable`.
        """
        kind = self.kind
        if kind == "by_preorder":
            return choose_by_preorder(xs, self.preorder, model, b)
        _guard(xs, b, numeric=kind != "imprecise_utility")
        if isinstance(xs, OptionTable):
            table, xs = xs, xs.rows or xs.vectors
        elif (members := self.row_members(model)) is not None:
            table = OptionTable.of(xs, b, members)
        elif kind == "eu" and isinstance(model, FactoredModel):
            # a factored model values each option, a gamble, on the tree's assessment
            table = OptionTable((), [(precise_gamble_value(model, x, b),) for x in xs])
        elif kind == "imprecise_utility" and isinstance(model, UtilityModel):
            if any(x.is_numeric for x in xs):
                raise ValueError("imprecise_utility expects label gambles")
            # one value per utility function: the options optimal under some
            # function are E-admissibility's union of per-function argmaxes
            table = OptionTable((), [utility_values(model, x, b) for x in xs])
            kind = "e_admissible"
        else:
            raise ModeUnsupported(
                "expected utility needs a joint or factored model" if kind == "eu"
                else "imprecise_utility needs a utility model" if kind == "imprecise_utility"
                else f"{kind} needs a credal model"
            )
        return tuple(xs[j] for j in RULES[kind](table, range(len(xs))))

    def row_members(
        self, model: Optional[UncertaintyModel]
    ) -> Optional[tuple[MassFunction, ...]]:
        """The mass functions the rule reads from integer rows under *model*:
        none for a model-free rule.  None where `choose` takes gambles only:
        `by_preorder`, `imprecise_utility`, expected utility under a
        factored model (which values whole gambles on the assessed tree),
        and a model that does not suit the rule, for which `choose` raises
        `ModeUnsupported`."""
        kind = self.kind
        if kind in MODEL_FREE:
            return ()
        if kind == "eu":
            return (model.p,) if isinstance(model, JointModel) else None
        if kind in RULES and isinstance(model, CredalModel):
            return model.credal.members
        return None

    @property
    def is_separable(self) -> bool:
        """Does this rule split over events and over choices?

        Each compares two options through the sums (or values) of their
        difference, so a gamble both share off an event cancels from the
        comparison, and each is path independent: dropping options it does
        not choose leaves its choice unchanged.  Backward induction solves
        these rules exactly (`solver.check_subtree_perfect`), and the
        canonical scan settles their shape (a) blocks without judging them.

        The claim holds only under a model the rule reads through member
        sums, so read the flag only where `row_members` is not None: under a
        factored model expected utility values gambles on the assessed tree,
        and is not subtree perfect (``problems/eu-example-3`` fails `check`).
        """
        return self.kind in (
            "eu",
            "maximality",
            "e_admissible",
            "e_admissible_hull",
            "pointwise_dominance",
        )

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
