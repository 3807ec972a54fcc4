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
of building trees, and settles whole blocks of instances at once where the
algebra decides them.  A deterministic sample of instances, bulk-settled
ones included, and every reported counterexample are re-run through the
actual tree pipeline, and any disagreement raises immediately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .choice import MODEL_FREE, RULES, ChoiceFunction, OptionTable
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
from .uncertainty import CredalModel, JointModel, MassFunction, UncertaintyModel

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

    ``max_instances`` of None means exhaustive; otherwise the scan stops
    after the first ``max_instances`` instances in plan order (shapes in
    the given order, then events, then options), which suits pools and
    events ordered by relevance.
    ``require_marginal_extension`` skips shape (a) instances on which the
    model's lower expectation fails the two-stage decomposition identity;
    that is the hypothesis under which the one-value rules are expected to
    be subtree perfect.  Rules that never read the model (maximin and
    pointwise dominance) are not filtered.
    """

    max_xs: int = 4
    max_ys: int = 4
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
        if self.max_xs < 1 or self.max_ys < 1:
            raise ValueError("option count bounds must be at least 1")
        if self.max_instances is not None and self.max_instances < 1:
            raise ValueError("the instance budget must be at least 1")


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

    def mask(self, combo: Sequence[int]) -> int:
        """The classes of the pool gambles in *combo*, as a bitmask."""
        return _mask(self.cls_of[i] for i in combo)


def _chosen_classes(ev: _EventData, kind: str, classes: Sequence[int]) -> frozenset:
    """The classes rule *kind* keeps out of *classes* on ev's event."""
    return frozenset(RULES[kind](ev.table, classes))


def _composite(ev1: _EventData, ev2: _EventData, zc: int) -> OptionTable:
    """The table, on e1 | e2, of every e1 class followed by e2 class zc."""
    t1, t2 = ev1.table, ev2.table
    z = ev2.rows[zc]
    return OptionTable(
        [row + z for row in ev1.rows],
        [w1 + w2 for w1, w2 in zip(t1.weights, t2.weights)],
        [m1 + m2 for m1, m2 in zip(t1.mass, t2.mass)],
    )


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
    number is a sum of binomials; iterating generates them in order, and
    indexing unranks one entry without building those before it.
    """

    def __init__(self, elig: list[int], bound: int):
        self.elig = elig
        self.sizes = range(1, min(bound, len(elig)) + 1)
        self.count = sum(math.comb(len(elig), s) for s in self.sizes)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for size in self.sizes:
            yield from itertools.combinations(self.elig, size)

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


class _Prefix(dict):
    """Position -> value of an iterable, read on only as far as asked."""

    def __init__(self, values):
        super().__init__()
        self._rest = iter(values)

    def __missing__(self, k: int):
        for i in range(len(self), k + 1):
            self[i] = next(self._rest)
        return self[k]


def _pairs(nx: int, ny: int, unordered: bool):
    """A block's (row, column) pairs in plan order."""
    for ci in range(nx):
        for cj in range(ci if unordered else 0, ny):
            yield ci, cj


def _pair_at(k: int, ny: int, unordered: bool) -> tuple[int, int]:
    """The k-th pair of ``_pairs``, without walking the pairs before it."""
    if not unordered:
        return divmod(k, ny)
    ci = 0
    while k >= ny - ci:
        k -= ny - ci
        ci += 1
    return ci, ci + k


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
        # event of zero mass under an unused model is skipped
        self.members: Optional[Sequence[MassFunction]] = None
        if choice.kind in MODEL_FREE:
            self.members = ()
        elif isinstance(model, JointModel):
            self.members = (model.p,)
        elif isinstance(model, CredalModel):
            self.members = model.credal.members
        self.fast = (
            choice.kind in RULES
            and all(g.is_numeric for g in self.pool)
            and self.members is not None
        )
        if self.fast:
            self.denominator = math.lcm(
                *{v.denominator for g in self.pool for v in g.values}
            )
        self._events: dict[Event, _EventData] = {}

    def event_data(self, event: Event) -> _EventData:
        ev = self._events.get(event)
        if ev is None:
            ev = _EventData(self, event)
            self._events[event] = ev
        return ev

    # -- judges: (ci, cj) -> verdict, or a whole block settled in bulk --------

    def _judge_b(self, b: Event, xcombos, ycombos, unordered: bool):
        """Shape (b): the rule over the union of both offers against each alone.

        A one-value rule keeps either all of argmax(X) or nothing of X from
        X | Y, so the whole block passes.  Otherwise the rule runs once per
        class mask, an offer's or a union's, and only for the instances the
        scan judges.
        """
        ev = self.event_data(b)
        if ev.table is None:
            return "skip"
        if self.choice.is_value_based:
            return "pass"
        kind = self.choice.kind
        xmasks = _Prefix(map(ev.mask, xcombos))
        ymasks = xmasks if unordered else _Prefix(map(ev.mask, ycombos))
        # class mask -> the classes the rule keeps of them
        keep = _Memo(lambda m: _mask(_chosen_classes(ev, kind, _mask_classes(m))))

        def judge(ci: int, cj: int):
            mx = xmasks[ci]
            my = ymasks[cj]
            cs = keep[mx | my]
            rx = cs & mx
            ry = cs & my
            fails = ()
            if rx and rx != keep[mx]:
                fails = ("N1",)
            if ry and ry != keep[my]:
                fails += ("N2",)
            return ("fail", fails) if fails else _PASS

        return judge

    def _judge_a(self, a: Event, b: Event, combos, eligz):
        """Shape (a): the rule on the composite gambles against xs alone.

        For the separable kinds, whose comparison the shared z cancels
        from, the whole block passes, unless the marginal extension filter
        must look at each instance.  The local choice on xs is made once per
        class mask, and the composite table once per z class, as the scan
        reaches them.
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
        masks = _Prefix(map(ev1.mask, combos))
        # class mask -> the rule's choice of those classes on e1 alone
        local = _Memo(lambda m: rule(ev1.table, _mask_classes(m)))
        composites = _Memo(lambda zc: _composite(ev1, ev2, zc))
        me_rows = _Memo(lambda zc: self._me_row(ev1, ev2, composites[zc], zc))

        def judge(ci: int, zj: int):
            zc = ev2.cls_of[eligz[zj]]
            mask = masks[ci]
            c = _mask_classes(mask)
            if filtered and not all(me_rows[zc][x] for x in c):
                return _SKIP
            if cancels or rule(composites[zc], c) == local[mask]:
                return _PASS
            return _FAIL_N1

        return judge

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
        masses = list(zip(t1.mass, t2.mass))
        return [
            composite
            == pick((c1 * m1 + c2 * m2) / (m1 + m2) for m1, m2 in masses)
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
        instances are the (row, column) pairs of ``_pairs``.  Shape (b) rows
        and columns are ``_Combos`` of pool indices; shape (a) rows are
        ``_Combos`` and columns the eligible pool indices of the z gamble.
        Only the eligible indices are gathered here; the sizes are counted
        with binomials, and no option set is built until the scan reads it.
        """
        lim = self.limits
        events = all_events(self.space)
        bs = lim.events_b if lim.events_b is not None else events
        as_ = (
            lim.events_a
            if lim.events_a is not None
            else tuple(e for e in events if e != self.space.omega())
        )

        def eligible(e: Event) -> list[int]:
            return [i for i, g in enumerate(self.pool) if e <= g.scope]

        blocks = []
        total = 0
        for shape in lim.shapes:
            if shape == "b":
                for b in bs:
                    if b.is_empty:
                        continue
                    elig = eligible(b)
                    xcombos = _Combos(elig, lim.max_xs)
                    unordered = lim.max_xs == lim.max_ys
                    if unordered:
                        ycombos = xcombos
                        n = len(xcombos) * (len(xcombos) + 1) // 2
                    else:
                        ycombos = _Combos(elig, lim.max_ys)
                        n = len(xcombos) * len(ycombos)
                    if n:
                        blocks.append(("b", None, b, xcombos, ycombos, unordered, n))
                        total += n
            else:
                for a in as_:
                    if a.is_empty or a == self.space.omega():
                        continue
                    for b in bs:
                        e1 = a & b
                        e2 = a.complement() & b
                        if e1.is_empty or e2.is_empty:
                            continue
                        combos = _Combos(eligible(e1), lim.max_xs)
                        eligz = eligible(e2)
                        n = len(combos) * len(eligz)
                        if n:
                            blocks.append(("a", a, b, combos, eligz, False, n))
                            total += n
        return blocks, total

    def _block(self, shape: str, a, b: Event, rows, cols, unordered: bool):
        """(judge, build) for one block.

        build(ci, cj) makes the instance; judge(ci, cj) gives its verdict,
        or judge is "skip" or "pass" when the whole block is settled at once.
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
                lambda ci, cj: _pipeline_verdict(self.choice, self.model, build(ci, cj))
            ), build
        if shape == "b":
            return self._judge_b(b, rows, cols, unordered), build
        return self._judge_a(a, b, rows, cols), build

    def run(self) -> CanonicalReport:
        lim = self.limits
        blocks, total = self._plan()
        kind = self.choice.kind
        budget = total if lim.max_instances is None else min(total, lim.max_instances)
        # fast verdicts are re-run through the pipeline at this cadence, and
        # every fast counterexample before it is reported
        vstride = max(1, budget // max(1, lim.verify_sample))

        examined = skipped = verified = 0
        next_verify = 1  # examined-counts at which a pipeline check runs
        failure = None
        base = 0  # plan index of the current block's first instance

        for shape, a, b, rows, cols, unordered, n in blocks:
            if base >= budget:
                break
            count = min(n, budget - base)
            base += n
            judge, build = self._block(shape, a, b, rows, cols, unordered)
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
                for ci, cj in itertools.islice(
                    _pairs(len(rows), len(cols), unordered), count
                ):
                    verdict = judge(ci, cj)
                    if verdict[0] == "skip":
                        skipped += 1
                        continue
                    examined += 1
                    if verdict[0] == "fail":
                        failure = (shape, build(ci, cj), verdict[1])
                        if self.fast:
                            self._verify(failure[1], verdict)
                            verified += 1
                        break
                    if self.fast and examined == next_verify:
                        next_verify += vstride
                        self._verify(build(ci, cj), verdict)
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
