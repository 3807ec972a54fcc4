"""Canonical two-stage instances and the exhaustive counterexample search.

Two tree shapes cover the interesting failures of subtree perfectness:

* shape (a): a chance node splits on an event A; under A a decision node
  offers the gambles xs, under the complement sits a single gamble z, and
  the whole tree is conditioned on an event B meeting both sides.
* shape (b): a decision node leads to two further decision nodes offering
  the gamble lists xs and ys, conditioned on a nonempty B.

``check_canonical`` enumerates instances of these shapes over a pool of
gambles, deterministically and exhaustively within the given limits, and
reports the first instance on which the full-tree solution restricted to
the inner decision node disagrees with the locally computed solution.  It
is a falsifier, not a prover: a pass means no counterexample in the pool.

So that millions of instances stay affordable, the scan applies the choice
rules of ``choice`` to per-event tables of the distinct pool gambles instead
of building trees, judges the instances that share a key (their classes of
distinct gambles) once, and settles whole blocks of instances at once where
the algebra decides them.  A block's distinct column keys are ranked by the
position where each first occurs, without building the others, and every
row is judged by its key against them, once per block: a row whose key
passes every ranked key passes whole, and only a row where some key skips
reads its column keys.  A deterministic sample of instances, bulk-settled
ones included, and every reported counterexample are re-run through the
actual tree pipeline, and any disagreement raises immediately.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .choice import RULES, ChoiceFunction, OptionTable
from .errors import InstanceInvalid, ZeroProbabilityCondition
from .solver import Outcome, check_subtree_perfect
from .trees import (
    DecisionTree,
    Event,
    Gamble,
    GambleLeaf,
    PossibilitySpace,
    chance,
    decision,
    scaled,
    validate_tree,
)
from .uncertainty import UncertaintyModel

# --- instances ---------------------------------------------------------------


def _check_gamble_kinds(gambles: Sequence[Gamble]) -> None:
    kinds = {g.is_numeric for g in gambles}
    if len(kinds) > 1:
        raise InstanceInvalid("instance mixes numeric and label gambles")


@dataclass(frozen=True)
class CanonicalInstanceA:
    """Chance split on A, a decision among xs under A, z otherwise."""

    a: Event
    xs: tuple[Gamble, ...]
    z: Gamble
    b: Event

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        if self.b.is_empty:
            raise InstanceInvalid("conditioning event must be nonempty")
        if (self.a & self.b).is_empty or (self.a.complement() & self.b).is_empty:
            raise InstanceInvalid(
                "the split event and its complement must both meet the"
                " conditioning event"
            )
        if not self.xs:
            raise InstanceInvalid("at least one option is required")
        e1 = self.a & self.b
        e2 = self.a.complement() & self.b
        for x in self.xs:
            if not e1 <= x.scope:
                raise InstanceInvalid("an option does not cover A intersected with B")
        if not e2 <= self.z.scope:
            raise InstanceInvalid("z does not cover the complement side of B")
        _check_gamble_kinds((*self.xs, self.z))


@dataclass(frozen=True)
class CanonicalInstanceB:
    """A decision between two further decisions offering xs and ys."""

    xs: tuple[Gamble, ...]
    ys: tuple[Gamble, ...]
    b: Event

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if self.b.is_empty:
            raise InstanceInvalid("conditioning event must be nonempty")
        if not self.xs or not self.ys:
            raise InstanceInvalid("both option lists must be nonempty")
        for g in (*self.xs, *self.ys):
            if not self.b <= g.scope:
                raise InstanceInvalid("an option does not cover the conditioning event")
        _check_gamble_kinds((*self.xs, *self.ys))


def make_canonical_a(inst: CanonicalInstanceA) -> DecisionTree:
    """Build and validate the shape (a) tree for *inst*.

    Node ids are fixed: root "N", the decision node "N1" with leaves
    "N1x1".."N1xn", and the gamble leaf "N2" on the complement side.
    """
    space = inst.b.space
    e1 = inst.a & inst.b
    e2 = inst.a.complement() & inst.b
    inner = decision(
        "N1",
        [
            (f"x{i + 1}", GambleLeaf(f"N1x{i + 1}", x.restricted(e1)))
            for i, x in enumerate(inst.xs)
        ],
    )
    root = chance(
        "N",
        [
            (inst.a, inner),
            (inst.a.complement(), GambleLeaf("N2", inst.z.restricted(e2))),
        ],
    )
    return validate_tree(DecisionTree(space, root, inst.b))


def make_canonical_b(inst: CanonicalInstanceB) -> DecisionTree:
    """Build and validate the shape (b) tree for *inst*.

    Node ids are fixed: root "N" with arcs "left"/"right" to the decision
    nodes "N1" and "N2", whose leaves are "N1x1".. and "N2y1"..
    """
    space = inst.b.space
    left = decision(
        "N1",
        [
            (f"x{i + 1}", GambleLeaf(f"N1x{i + 1}", x.restricted(inst.b)))
            for i, x in enumerate(inst.xs)
        ],
    )
    right = decision(
        "N2",
        [
            (f"y{j + 1}", GambleLeaf(f"N2y{j + 1}", y.restricted(inst.b)))
            for j, y in enumerate(inst.ys)
        ],
    )
    root = decision("N", [("left", left), ("right", right)])
    return validate_tree(DecisionTree(space, root, inst.b))


# --- limits and report --------------------------------------------------------


@dataclass(frozen=True)
class CanonicalLimits:
    """Bounds on the instance enumeration.

    ``max_options`` bounds the size of each offered option set: xs in both
    shapes, and ys in shape (b).  ``max_instances`` of None means
    exhaustive; otherwise the scan stops after the first ``max_instances``
    instances in plan order (shapes in the given order, then events, then
    options), which suits pools and events ordered by relevance.
    ``shapes`` names each scanned shape once.  About ``verify_sample``
    examined instances, evenly spaced, are re-run through the tree pipeline.
    ``require_marginal_extension`` skips shape (a) instances on which the
    model's lower expectation fails the two-stage decomposition identity;
    that is the hypothesis under which the one-value rules are expected to
    be subtree perfect.  Rules that never read the model (maximin and
    pointwise dominance) are not filtered.
    """

    max_options: int = 4
    shapes: tuple[str, ...] = ("a", "b")
    events_a: Optional[tuple[Event, ...]] = None
    events_b: Optional[tuple[Event, ...]] = None
    max_instances: Optional[int] = None
    verify_sample: int = 24
    require_marginal_extension: bool = False

    def __post_init__(self) -> None:
        for s in self.shapes:
            if s not in ("a", "b"):
                raise ValueError(f"unknown shape {s!r}")
        if not self.shapes or len(set(self.shapes)) < len(self.shapes):
            raise ValueError("the shapes must be one or both of 'a' and 'b', each once")
        if self.max_options < 1:
            raise ValueError("the option count bound must be at least 1")
        if self.max_instances is not None and self.max_instances < 1:
            raise ValueError("the instance budget must be at least 1")
        if self.verify_sample < 1:
            raise ValueError("the verification sample must be at least 1")


@dataclass(frozen=True, eq=False)
class CanonicalReport:
    """Outcome of one canonical scan."""

    passed: bool
    kind: str
    instances_total: int
    instances_examined: int
    instances_skipped: int
    instances_verified: int
    shape: Optional[str] = None
    instance: object = None
    failing_nodes: tuple[str, ...] = ()
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "kind": self.kind,
            "instances": {
                "total": self.instances_total,
                "examined": self.instances_examined,
                "skipped": self.instances_skipped,
                "verified_against_pipeline": self.instances_verified,
            },
            "note": self.note,
        }
        if self.instance is not None:
            out["shape"] = self.shape
            out["failing_nodes"] = list(self.failing_nodes)
            out["instance"] = _instance_json(self.instance)
        return out


def _gamble_json(g: Gamble) -> dict:
    return {a: str(v) for a, v in g.items()}


def _instance_json(inst) -> dict:
    if isinstance(inst, CanonicalInstanceA):
        return {
            "a": list(inst.a.ordered),
            "b": list(inst.b.ordered),
            "xs": [_gamble_json(x) for x in inst.xs],
            "z": _gamble_json(inst.z),
        }
    return {
        "b": list(inst.b.ordered),
        "xs": [_gamble_json(x) for x in inst.xs],
        "ys": [_gamble_json(y) for y in inst.ys],
    }


# --- reference evaluation through the tree pipeline ---------------------------

_PASS = ("pass", ())
_SKIP = ("skip", ())
_FAIL_N1 = ("fail", ("N1",))


def _pipeline_verdict(
    choice: ChoiceFunction, model: Optional[UncertaintyModel], inst
) -> tuple[str, tuple[str, ...]]:
    """("pass"|"fail"|"skip", failing node ids) via the real solver."""
    tree = (
        make_canonical_a(inst)
        if isinstance(inst, CanonicalInstanceA)
        else make_canonical_b(inst)
    )
    try:
        verdicts = check_subtree_perfect(tree, choice, model)
    except ZeroProbabilityCondition:
        return _SKIP
    if any(v.outcome is Outcome.ERROR for v in verdicts):
        return _SKIP
    fails = tuple(v.node_id for v in verdicts if v.outcome is Outcome.FAIL)
    return ("fail", fails) if fails else _PASS


# --- fast evaluation ----------------------------------------------------------

def all_events(space: PossibilitySpace) -> tuple[Event, ...]:
    """Every nonempty event, in ascending bitmask order over the atoms."""
    n = len(space.atoms)
    out = []
    for mask in range(1, 1 << n):
        out.append(
            space.event(a for i, a in enumerate(space.atoms) if mask >> i & 1)
        )
    return tuple(out)


class _EventData:
    """Pool gambles deduplicated into classes on one event, and their table.

    The rows are integers over the checker's pool-wide denominator, so the
    rows of different events can be joined into one table.  ``table`` is
    None when some model member gives the event mass zero.
    """

    def __init__(self, checker: "_Checker", event: Event):
        self.cls_of: dict[int, int] = {}
        self.reps: list[int] = []
        self.rows: list[tuple[int, ...]] = []
        seen: dict[tuple, int] = {}
        d = checker.denominator
        for i, g in enumerate(checker.pool):
            if not event <= g.scope:
                continue
            row = tuple(scaled(v, d) for v in g.values_on(event))
            cid = seen.get(row)
            if cid is None:
                cid = len(self.reps)
                seen[row] = cid
                self.reps.append(i)
                self.rows.append(row)
            self.cls_of[i] = cid
        try:
            self.table: Optional[OptionTable] = OptionTable.on(
                event, self.rows, checker.members
            )
        except ZeroProbabilityCondition:
            self.table = None

    def masks(self, combos: "_Combos"):
        """The class masks of *combos*' option sets, in their order."""
        bits = [1 << self.cls_of[i] for i in combos.elig]
        for size in combos.sizes:
            yield from map(_or_all, itertools.combinations(bits, size))

    def ranked(self, combos: "_Combos"):
        """(first position, mask) of each distinct class mask of *combos*'
        option sets, in the order of their first positions.

        The masks are the sets of 1 to *bound* classes.  A set of k classes
        first occurs among the k-element option sets, at the one that takes
        each class's first eligible index, so the sets of k classes, taken
        in combination order over the classes ordered by first index, are
        in order of their first positions.  A position is the count of the
        smaller sizes' sets plus the lexicographic rank of those indices,
        which inverts `_Combos.__getitem__`: indices p_1 < .. < p_k of n
        rank comb(n, k) - 1 - sum over i of comb(n - 1 - p_i, k - i + 1).
        """
        first: dict[int, int] = {}  # class -> its first eligible index
        for p, i in enumerate(combos.elig):
            first.setdefault(self.cls_of[i], p)
        n = len(combos.elig)
        bits = [1 << c for c in first]
        offset = 0
        for size in combos.sizes[: len(bits)]:
            offset += math.comb(n, size)
            # terms[i][c]: class c's summand as the (i + 1)-th class of a set
            terms = [[math.comb(n - 1 - p, size - i) for p in first.values()] for i in range(size)]
            for cs in itertools.combinations(range(len(bits)), size):
                position = offset - 1 - sum(map(list.__getitem__, terms, cs))
                yield position, _or_all(map(bits.__getitem__, cs))


def _chosen_classes(ev: _EventData, kind: str, classes: Sequence[int]) -> frozenset:
    """The classes rule *kind* keeps out of *classes* on ev's event."""
    return frozenset(RULES[kind](ev.table, classes))


def _composite(ev1: _EventData, ev2: _EventData, zc: int) -> OptionTable:
    """The table, on e1 | e2, of every e1 class followed by e2 class zc:
    both tables weigh a member by the same integers, so the sums add."""
    t1, t2 = ev1.table, ev2.table
    z, zv = ev2.rows[zc], t2.vectors[zc]
    return OptionTable(
        [row + z for row in ev1.rows],
        [tuple(map(operator.add, v, zv)) for v in t1.vectors],
        [m1 + m2 for m1, m2 in zip(t1.totals, t2.totals)],
    )


_or_all = functools.partial(functools.reduce, operator.or_)


def _mask(classes) -> int:
    out = 0
    for c in classes:
        out |= 1 << c
    return out


def _mask_classes(mask: int) -> tuple[int, ...]:
    """Class ids packed in a bitmask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class _Combos:
    """A block's option sets, counted up front and built only when read.

    The entries are the combinations of 1 to *bound* of the eligible pool
    indices, by size and then in ``itertools.combinations`` order.  Their
    number is a sum of binomials, and indexing unranks one entry without
    building those before it.
    """

    def __init__(self, elig: list[int], bound: int):
        self.elig = elig
        self.sizes = range(1, min(bound, len(elig)) + 1)
        self.count = sum(math.comb(len(elig), s) for s in self.sizes)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self.count:
            raise IndexError(k)
        n = len(self.elig)
        for size in self.sizes:
            if k < math.comb(n, size):
                break
            k -= math.comb(n, size)
        out = []
        i = 0
        for left in range(size, 0, -1):
            # comb(n - i - 1, left - 1) of the remaining combinations take
            # elig[i] next; step past them while k lies beyond
            while k >= math.comb(n - i - 1, left - 1):
                k -= math.comb(n - i - 1, left - 1)
                i += 1
            out.append(self.elig[i])
            i += 1
        return tuple(out)


class _Memo(dict):
    """Key -> f(key), computed at the first lookup of the key."""

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, key):
        value = self[key] = self._f(key)
        return value


class _Prefix(list):
    """The values of an iterable, read on only as far as asked."""

    def __init__(self, values):
        super().__init__()
        self._rest = iter(values)

    def upto(self, n: int) -> "_Prefix":
        """Self, holding at least the first *n* values (all, if fewer)."""
        if n > len(self):
            self.extend(itertools.islice(self._rest, n - len(self)))
        return self


def _first_occurrences(keys):
    """(position, key) of each distinct key of *keys* where it first occurs."""
    seen = set()
    for p, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            yield p, key


def _pair_at(k: int, ny: int, unordered: bool) -> tuple[int, int]:
    """A block's k-th (row, column) pair in plan order.

    Row ci holds the columns from ci (unordered blocks) or 0 to ny.
    """
    if not unordered:
        return divmod(k, ny)
    ci = 0
    while k >= ny - ci:
        k -= ny - ci
        ci += 1
    return ci, ci + k


def _by_rank(ranked: _Prefix, verdict, rk, k: int, end: int):
    """Row key *rk* judged against the *ranked* column keys (first position,
    key), from the k-th up to the first one first seen at *end* or after:
    (the keys that skip, (position, verdict) of the first key that fails or
    None).

    The caller passes as k the count of keys first seen before the row's
    start, 0 in an ordered block.  A row of an unordered block may hold
    such keys too, and they pass:

    * the pipeline keys an instance by its positions, so the row holds
      none of them;
    * shape (b)'s verdict fails for (X, Y) exactly when it fails for
      (Y, X), with N1 and N2 swapped, and never skips (`_Checker._judge_b`).
      Its rows and columns are the same option sets, so a key Y first seen
      at q, before the start of row X, is the key of row q, which holds the
      column of row X.  Row q was scanned whole and passed, (Y, X) among
      its instances, so (X, Y) passes.

    So every key that can fail in the row is ranked from the k-th on, and
    the first ranked key that fails is first seen at the row's first
    failing instance.
    """
    skips = set()
    while k < len(ranked) or k < len(ranked.upto(2 * k + 1)):
        p, ck = ranked[k]
        if p >= end:
            break
        v = verdict(rk, ck)
        if v[0] == "fail":
            return skips, (p, v)
        if v[0] == "skip":
            skips.add(ck)
        k += 1
    return skips, None


class _Checker:
    def __init__(
        self,
        choice: ChoiceFunction,
        model: Optional[UncertaintyModel],
        space: PossibilitySpace,
        pool: Sequence[Gamble],
        limits: CanonicalLimits,
    ):
        self.choice = choice
        self.model = model
        self.space = space
        self.pool = tuple(pool)
        self.limits = limits
        if not self.pool:
            raise ValueError("the gamble pool is empty")
        for g in self.pool:
            if g.scope.space != space:
                raise ValueError("pool gambles live in a different space")
        # the members the rule reads: none for a model-free rule, so that no
        # event of zero mass under an unused model is skipped; None where
        # the pipeline decides, which reports a model that does not suit
        self.members = choice.row_members(model)
        self.fast = self.members is not None and all(g.is_numeric for g in self.pool)
        if self.fast:
            self.denominator = math.lcm(
                *{v.denominator for g in self.pool for v in g.values}
            )
        # the pool's classes and their table on an event, built once per event
        self.event_data = _Memo(functools.partial(_EventData, self)).__getitem__

    # -- judges: keys and a verdict per key pair, or a block settled in bulk --

    def _judge_b(self, b: Event, combos):
        """Shape (b): the rule over the union of both offers against each alone.

        A one-value rule keeps either all of argmax(X) or nothing of X from
        X | Y, so the whole block passes.  Otherwise an instance's verdict
        depends only on the class masks of its two offers, which are its row
        and column keys, and the rule runs once per class mask, an offer's
        or a union's, as the scan reaches them.  The distinct column keys
        are ranked by their first positions without building the others
        (`_EventData.ranked`).
        """
        ev = self.event_data(b)
        if ev.table is None:
            return "skip"
        if self.choice.is_value_based:
            return "pass"
        kind = self.choice.kind
        masks = _Prefix(ev.masks(combos))
        # class mask -> the classes the rule keeps of them
        keep = _Memo(lambda m: _mask(_chosen_classes(ev, kind, _mask_classes(m))))

        def verdict(mx: int, my: int):
            cs = keep[mx | my]
            rx = cs & mx
            ry = cs & my
            fails = ()
            if rx and rx != keep[mx]:
                fails = ("N1",)
            if ry and ry != keep[my]:
                fails += ("N2",)
            return ("fail", fails) if fails else _PASS

        return masks, masks, verdict, _Prefix(ev.ranked(combos))

    def _judge_a(self, a: Event, b: Event, combos, eligz):
        """Shape (a): the rule on the composite gambles against xs alone.

        For the separable kinds, whose comparison the shared z cancels
        from, the whole block passes, unless the marginal extension filter
        must look at each instance.  Otherwise an instance's verdict depends
        only on the class mask of xs and the class of z, which are its row
        and column keys.  The local choice on xs is made once per class
        mask, and the composite table once per z class, as the scan reaches
        them.  The distinct column keys, the z classes, are ranked by
        one pass over *eligz*.
        """
        ev1 = self.event_data(a & b)
        ev2 = self.event_data(a.complement() & b)
        if ev1.table is None or ev2.table is None:
            return "skip"
        kind = self.choice.kind
        filtered = self.limits.require_marginal_extension and bool(self.members)
        cancels = self.choice.is_separable
        if cancels and not filtered:
            return "pass"
        rule = RULES[kind]
        # class mask -> the rule's choice of those classes on e1 alone
        local = _Memo(lambda m: rule(ev1.table, _mask_classes(m)))
        composites = _Memo(lambda zc: _composite(ev1, ev2, zc))
        me_rows = _Memo(lambda zc: self._me_row(ev1, ev2, composites[zc], zc))

        def verdict(mask: int, zc: int):
            c = _mask_classes(mask)
            if filtered and not all(me_rows[zc][x] for x in c):
                return _SKIP
            if cancels or rule(composites[zc], c) == local[mask]:
                return _PASS
            return _FAIL_N1

        zclasses = _Prefix(ev2.cls_of[i] for i in eligz)
        ranked = _Prefix(_first_occurrences(ev2.cls_of[i] for i in eligz))
        return _Prefix(ev1.masks(combos)), zclasses, verdict, ranked

    def _me_row(
        self, ev1: _EventData, ev2: _EventData, full: OptionTable, zc: int
    ) -> list[bool]:
        """Two-stage decomposition verdicts for every class against z-class zc.

        Entry c is True when the conditional lower (or upper, for the
        maximax rule) expectation of the composite gamble equals that of
        the two-valued gamble built from the stagewise envelope values;
        tested exactly, in the rows' units, since each table scales its
        envelopes by its own factor.
        """
        t1, t2 = ev1.table, ev2.table
        if self.choice.kind == "gamma_maximax":
            pick, side = max, "upper"
        else:
            pick, side = min, "lower"

        def envelope(t: OptionTable) -> list[Fraction]:
            return [Fraction(v, t.scale) for v in getattr(t, side)]

        c2 = Fraction(getattr(t2, side)[zc], t2.scale)
        # a member's totals on e1 and e2 share its factor, which cancels
        totals = list(zip(t1.totals, t2.totals))
        return [
            composite
            == pick((c1 * m1 + c2 * m2) / (m1 + m2) for m1, m2 in totals)
            for c1, composite in zip(envelope(t1), envelope(full))
        ]

    def _verify(self, inst, fast: tuple[str, tuple[str, ...]]) -> None:
        ref = _pipeline_verdict(self.choice, self.model, inst)
        if ref[0] != fast[0] or set(ref[1]) != set(fast[1]):
            raise RuntimeError(
                "fast canonical evaluation disagrees with the tree pipeline"
                f" on {inst!r}: fast={fast} pipeline={ref}"
            )

    # -- the scan ------------------------------------------------------------

    def _plan(self) -> tuple[list, int]:
        """Blocks of instances, in deterministic order, plus the total count.

        A block is (shape, A or None, B, rows, columns, unordered, size): its
        instances are the (row, column) pairs in the order of ``_pair_at``,
        row by row, each row from its own index (unordered) or from column
        0 on.  Shape (b) is symmetric in its two offers, so its rows and
        columns are one ``_Combos`` of pool indices, unordered; shape (a)
        rows are ``_Combos`` and columns the eligible pool indices of the z
        gamble, ordered.
        Only the eligible indices are gathered here; the sizes are counted
        with binomials, and no option set is built until the scan reads it.
        """
        lim = self.limits
        omega = self.space.omega()
        # the loops below compare atom sets, which carry no space
        for e in (*(lim.events_a or ()), *(lim.events_b or ())):
            omega._check_space(e)
        events = all_events(self.space)
        bs = lim.events_b if lim.events_b is not None else events
        # every event but omega, which comes last
        as_ = lim.events_a if lim.events_a is not None else events[:-1]
        scopes = [g.scope.members for g in self.pool]
        # atom set -> the pool indices whose gamble's scope holds it
        eligible = _Memo(lambda e: [i for i, s in enumerate(scopes) if e <= s])

        blocks = []
        total = 0
        for shape in lim.shapes:
            if shape == "b":
                for b in bs:
                    if b.is_empty:
                        continue
                    combos = _Combos(eligible[b.members], lim.max_options)
                    n = len(combos) * (len(combos) + 1) // 2
                    if n:
                        blocks.append(("b", None, b, combos, combos, True, n))
                        total += n
            else:
                for a in as_:
                    if a.is_empty or a == omega:
                        continue
                    rest = omega.members - a.members
                    for b in bs:
                        e1 = a.members & b.members
                        e2 = rest & b.members
                        if not e1 or not e2:
                            continue
                        combos = _Combos(eligible[e1], lim.max_options)
                        eligz = eligible[e2]
                        n = len(combos) * len(eligz)
                        if n:
                            blocks.append(("a", a, b, combos, eligz, False, n))
                            total += n
        return blocks, total

    def _block(self, shape: str, a, b: Event, rows, cols):
        """(judge, build) for one block.

        build(ci, cj) makes the instance.  judge is "skip" or "pass" when
        the whole block is settled at once, and otherwise (row keys, column
        keys, verdict, ranked): an instance's verdict is verdict(row key,
        column key), and ranked holds (first position, key) of each distinct
        column key in the order of those positions.  The pipeline keys its
        instances by their positions, each its own first position.
        """
        pool = self.pool
        if shape == "b":

            def build(ci: int, cj: int):
                return CanonicalInstanceB(
                    tuple(pool[i] for i in rows[ci]),
                    tuple(pool[i] for i in cols[cj]),
                    b,
                )

        else:

            def build(ci: int, zj: int):
                return CanonicalInstanceA(
                    a, tuple(pool[i] for i in rows[ci]), pool[cols[zj]], b
                )

        if not self.fast:
            return (
                _Prefix(range(len(rows))),
                _Prefix(range(len(cols))),
                lambda ci, cj: _pipeline_verdict(self.choice, self.model, build(ci, cj)),
                _Prefix(enumerate(range(len(cols)))),
            ), build
        if shape == "b":
            return self._judge_b(b, rows), build
        return self._judge_a(a, b, rows, cols), build

    @staticmethod
    def _rows(row_keys, col_keys, verdict, ranked, ny: int, unordered: bool, count: int):
        """A block's first *count* instances in plan order, judged by key.

        Each row key is judged once per block, against the ranked column
        keys first seen from the row's start up to its end (`_by_rank`).
        A later row with the same key holds a subset of that row's columns,
        so it is settled by the keys that skipped there.  Only a row where
        some key skips reads its column keys, to list the passing positions.  Yields, per row, (row, positions of the passing
        columns, number of skipped columns, (column, verdict) of the failure
        or None), and stops after a failure.
        """
        skipping = {}  # row key that did not fail -> its column keys that skip
        ci = k = 0  # k: the ranked keys first seen before row ci's start
        while count:
            lo = ci if unordered else 0
            end = lo + min(ny - lo, count)
            count -= end - lo
            rk = row_keys.upto(ci + 1)[ci]
            fail = None
            if rk not in skipping:
                while k < len(ranked.upto(k + 1)) and ranked[k][0] < lo:
                    k += 1
                skipping[rk], fail = _by_rank(ranked, verdict, rk, k, end)
            stop = fail[0] if fail else end
            skips = skipping[rk]
            if skips:
                keys = col_keys.upto(stop)[lo:stop]
                passed = [p for p, ck in enumerate(keys, lo) if ck not in skips]
            else:
                passed = range(lo, stop)
            yield ci, passed, stop - lo - len(passed), fail
            if fail:
                return
            ci += 1

    def run(self) -> CanonicalReport:
        lim = self.limits
        blocks, total = self._plan()
        kind = self.choice.kind
        budget = total if lim.max_instances is None else min(total, lim.max_instances)
        # fast verdicts are re-run through the pipeline at this cadence, and
        # every fast counterexample before it is reported
        vstride = max(1, budget // lim.verify_sample)

        examined = skipped = verified = 0
        next_verify = 1  # examined-counts at which a pipeline check runs
        failure = None
        base = 0  # plan index of the current block's first instance

        for shape, a, b, rows, cols, unordered, n in blocks:
            if base >= budget:
                break
            count = min(n, budget - base)
            base += n
            judge, build = self._block(shape, a, b, rows, cols)
            if judge == "skip":
                skipped += count
            elif judge == "pass":
                start = examined
                examined += count
                while next_verify <= examined:
                    ci, cj = _pair_at(next_verify - start - 1, len(cols), unordered)
                    self._verify(build(ci, cj), _PASS)
                    verified += 1
                    next_verify += vstride
            else:
                for ci, passed, nskip, fail in self._rows(*judge, len(cols), unordered, count):
                    skipped += nskip
                    start = examined
                    examined += len(passed)
                    # the cadence's positions strictly before a failure
                    while self.fast and next_verify <= examined:
                        self._verify(build(ci, passed[next_verify - start - 1]), _PASS)
                        verified += 1
                        next_verify += vstride
                    if fail:
                        cj, verdict = fail
                        examined += 1
                        failure = (shape, build(ci, cj), verdict[1])
                        if self.fast:
                            self._verify(failure[1], verdict)
                            verified += 1
                if failure:
                    break

        if failure:
            shape, inst, nodes = failure
            return CanonicalReport(
                passed=False,
                kind=kind,
                instances_total=total,
                instances_examined=examined,
                instances_skipped=skipped,
                instances_verified=verified,
                shape=shape,
                instance=inst,
                failing_nodes=nodes,
                note="counterexample confirmed by the tree pipeline",
            )
        return CanonicalReport(
            passed=True,
            kind=kind,
            instances_total=total,
            instances_examined=examined,
            instances_skipped=skipped,
            instances_verified=verified,
            note="no counterexample found in the given pool within the limits",
        )


def check_canonical(
    choice: ChoiceFunction,
    model: Optional[UncertaintyModel],
    space: PossibilitySpace,
    pool: Sequence[Gamble],
    limits: Optional[CanonicalLimits] = None,
) -> CanonicalReport:
    """Scan canonical instances built from *pool* for perfectness failures.

    Deterministic: the enumeration order is fixed by the pool order, the
    event order and the limits, and the first failing instance is reported.
    """
    return _Checker(choice, model, space, pool, limits or CanonicalLimits()).run()
