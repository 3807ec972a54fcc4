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

The per-kind evaluators mirror the normal form pipeline algebraically so
millions of instances stay affordable; a deterministic sample of instances
and every reported counterexample are re-run through the actual tree
pipeline, and any disagreement raises immediately.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import ratlp
from .choice import ChoiceFunction, _maximal
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

    ``max_instances`` of None means exhaustive; otherwise the enumeration is
    thinned deterministically, by a fixed stride over the whole instance
    space or, with ``sample_mode="prefix"``, by taking the first instances
    in order (useful when the pool and events are ordered by relevance).
    ``require_marginal_extension`` skips shape (a) instances on which the
    model's lower expectation fails the two-stage decomposition identity;
    that is the hypothesis under which the one-value rules are expected to
    be subtree perfect.
    """

    max_xs: int = 4
    max_ys: int = 4
    shapes: tuple[str, ...] = ("a", "b")
    events_a: Optional[tuple[Event, ...]] = None
    events_b: Optional[tuple[Event, ...]] = None
    max_instances: Optional[int] = None
    sample_mode: str = "stride"
    verify_sample: int = 24
    require_marginal_extension: bool = False

    def __post_init__(self) -> None:
        for s in self.shapes:
            if s not in ("a", "b"):
                raise ValueError(f"unknown shape {s!r}")
        if self.sample_mode not in ("stride", "prefix"):
            raise ValueError(f"unknown sample mode {self.sample_mode!r}")
        if self.max_xs < 1 or self.max_ys < 1:
            raise ValueError("option count bounds must be at least 1")


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
        return "skip", ()
    if any(v.outcome is Outcome.ERROR for v in verdicts):
        return "skip", ()
    fails = tuple(v.node_id for v in verdicts if v.outcome is Outcome.FAIL)
    return ("fail", fails) if fails else ("pass", ())


# --- fast evaluation ----------------------------------------------------------

_VALUE_KINDS = ("eu", "maximin", "gamma_maximin", "gamma_maximax")
_SET_KINDS = ("maximality", "e_admissible", "e_admissible_hull",
              "interval_dominance", "pointwise_dominance")
_FAST_KINDS = _VALUE_KINDS + _SET_KINDS
# kinds whose shape (a) comparison is unchanged by the gamble shared on the
# complement side: expectation shifts cancel from argmax (eu) and from the
# pairwise differences the set-valued rules compare
_SHARED_Z_CANCELS = ("eu", "maximality", "e_admissible",
                     "e_admissible_hull", "pointwise_dominance")


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
    """Pool gambles deduplicated and preprocessed on one event."""

    def __init__(self, checker: "_Checker", event: Event):
        self.event = event
        pool = checker.pool
        self.elig = tuple(
            i for i in range(len(pool)) if event <= pool[i].scope
        )
        self.cls_of: dict[int, int] = {}
        self.reps: list[int] = []
        self.rows: list[tuple] = []
        seen: dict[tuple, int] = {}
        for i in self.elig:
            row = pool[i].values_on(event)
            cid = seen.get(row)
            if cid is None:
                cid = len(self.reps)
                seen[row] = cid
                self.reps.append(i)
                self.rows.append(row)
            self.cls_of[i] = cid

        members = checker.members
        self.zero_mass = False
        self.mass: list[Fraction] = []
        self.sums: list[list[Fraction]] = []
        if members is not None:
            for p in members:
                pb = p.prob(event)
                if pb == 0:
                    self.zero_mass = True
                self.mass.append(pb)
            if not self.zero_mass:
                atoms = event.ordered
                for p in members:
                    weights = [p.mass(a) for a in atoms]
                    self.sums.append(
                        [
                            sum(
                                (w * v for w, v in zip(weights, row)),
                                Fraction(0),
                            )
                            for row in self.rows
                        ]
                    )
        self.mins = [min(row) for row in self.rows]
        self._val: dict[str, list[Fraction]] = {}
        self._dom: Optional[list[frozenset]] = None
        self._pdom: Optional[list[frozenset]] = None
        self._rank: Optional[list[list[int]]] = None
        self._lo: Optional[list[Fraction]] = None
        self._up: Optional[list[Fraction]] = None

    def value(self, kind: str) -> list[Fraction]:
        vals = self._val.get(kind)
        if vals is None:
            k = range(len(self.mass))
            if kind == "eu":
                vals = list(self.sums[0])
            elif kind == "maximin":
                vals = list(self.mins)
            elif kind == "gamma_maximin":
                vals = [
                    min(self.sums[m][c] / self.mass[m] for m in k)
                    for c in range(len(self.reps))
                ]
            elif kind == "gamma_maximax":
                vals = [
                    max(self.sums[m][c] / self.mass[m] for m in k)
                    for c in range(len(self.reps))
                ]
            else:
                raise ValueError(f"{kind!r} is not a one-value kind")
            self._val[kind] = vals
        return vals

    def dom(self) -> list[frozenset]:
        """dom()[c] is the set of classes c strictly dominates memberwise."""
        if self._dom is None:
            n = len(self.reps)
            k = range(len(self.sums))
            self._dom = [
                frozenset(
                    d
                    for d in range(n)
                    if d != c
                    and all(self.sums[m][c] > self.sums[m][d] for m in k)
                )
                for c in range(n)
            ]
        return self._dom

    def pdom(self) -> list[frozenset]:
        if self._pdom is None:
            n = len(self.reps)
            self._pdom = [
                frozenset(
                    d
                    for d in range(n)
                    if d != c
                    and all(a >= b for a, b in zip(self.rows[c], self.rows[d]))
                    and self.rows[c] != self.rows[d]
                )
                for c in range(n)
            ]
        return self._pdom

    def rank(self) -> list[list[int]]:
        """Dense per-member ranks of the class sums, 0 best; ties share."""
        if self._rank is None:
            out = []
            for sums in self.sums:
                order = sorted(set(sums), reverse=True)
                pos = {v: r for r, v in enumerate(order)}
                out.append([pos[v] for v in sums])
            self._rank = out
        return self._rank

    def bounds(self) -> tuple[list[Fraction], list[Fraction]]:
        if self._lo is None:
            k = range(len(self.mass))
            self._lo = [
                min(self.sums[m][c] / self.mass[m] for m in k)
                for c in range(len(self.reps))
            ]
            self._up = [
                max(self.sums[m][c] / self.mass[m] for m in k)
                for c in range(len(self.reps))
            ]
        return self._lo, self._up


def _chosen_classes(ev: _EventData, kind: str, classes: tuple[int, ...]) -> frozenset:
    """The classes a set-valued rule keeps out of *classes* on ev's event."""
    cs = set(classes)
    if kind == "maximality":
        dom = ev.dom()
        return frozenset(
            c for c in cs if not any(c in dom[d] for d in cs if d != c)
        )
    if kind == "pointwise_dominance":
        dom = ev.pdom()
        return frozenset(
            c for c in cs if not any(c in dom[d] for d in cs if d != c)
        )
    if kind == "interval_dominance":
        lo, up = ev.bounds()
        thr = max(lo[c] for c in cs)
        return frozenset(c for c in cs if up[c] >= thr)
    if kind in ("e_admissible", "e_admissible_hull"):
        rank = ev.rank()
        out = set()
        for r in rank:
            best = min(r[c] for c in cs)
            out.update(c for c in cs if r[c] == best)
        if kind == "e_admissible_hull":
            k = len(ev.sums)
            ones = [Fraction(1)] * k
            ordered = sorted(cs)
            # As in choice.choose_e_admissible: only maxima can be hull
            # E-admissible, and only their constraints bind.
            maxima = [
                ordered[i]
                for i in _maximal([[row[c] for c in ordered] for row in ev.sums])
            ]
            for c in maxima:
                if c in out:
                    continue
                rows = [
                    (
                        [ev.sums[m][c] - ev.sums[m][d] for m in range(k)],
                        Fraction(0),
                    )
                    for d in maxima
                    if d != c
                ]
                if ratlp.feasible(k, eqs=[(ones, Fraction(1))], ges=rows):
                    out.add(c)
        return frozenset(out)
    raise ValueError(f"{kind!r} is not a set-valued kind")


def _dedup(seq) -> tuple:
    return tuple(dict.fromkeys(seq))


def _mask_classes(mask: int) -> tuple[int, ...]:
    """Class ids packed in a bitmask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


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
        if isinstance(model, JointModel):
            self.members: Optional[list[MassFunction]] = [model.p]
        elif isinstance(model, CredalModel):
            self.members = list(model.credal.members)
        else:
            self.members = None
        self.fast = (
            choice.kind in _FAST_KINDS
            and all(g.is_numeric for g in self.pool)
            and (self.members is not None or choice.kind in ("maximin", "pointwise_dominance"))
        )
        self._events: dict[Event, _EventData] = {}

    def event_data(self, event: Event) -> _EventData:
        ev = self._events.get(event)
        if ev is None:
            ev = _EventData(self, event)
            self._events[event] = ev
        return ev

    # -- shape (b) ---------------------------------------------------------

    def _combo_stats_b(self, ev: _EventData, combos: list[tuple[int, ...]], kind: str):
        """Per combo, as class bitmasks hoisted out of the pair loop.

        Value kinds get (classes, rank of the best value, argmax classes),
        ranking the classes' values densely so that the pair loop compares
        ints instead of Fractions; set-valued kinds get (classes, chosen
        classes within the combo alone).
        """
        cls_of = ev.cls_of
        stats = []
        if kind in _VALUE_KINDS:
            rank = {v: r for r, v in enumerate(sorted(set(ev.value(kind))))}
            vals = [rank[v] for v in ev.value(kind)]
            for combo in combos:
                cids = _dedup(cls_of[i] for i in combo)
                top = max(vals[c] for c in cids)
                mask = arg = 0
                for c in cids:
                    mask |= 1 << c
                    if vals[c] == top:
                        arg |= 1 << c
                stats.append((mask, top, arg))
        else:
            for combo in combos:
                cids = _dedup(cls_of[i] for i in combo)
                mask = 0
                for c in cids:
                    mask |= 1 << c
                ch = _chosen_classes(ev, kind, cids)
                cm = 0
                for c in ch:
                    cm |= 1 << c
                stats.append((mask, cm))
        return stats

    def _chosen_mask(self, ev: _EventData, kind: str, union: int, cache: dict) -> int:
        """Chosen-class mask over a union of combos, memoized per union."""
        cs = cache.get(union)
        if cs is None:
            cs = 0
            for c in _chosen_classes(ev, kind, _mask_classes(union)):
                cs |= 1 << c
            cache[union] = cs
        return cs

    def _verdict_b_fast(
        self, ev: _EventData, kind: str, sx, sy, ucache: dict
    ) -> tuple[str, tuple[str, ...]]:
        if kind in _VALUE_KINDS:
            mx, vx, ax = sx
            my, vy, ay = sy
            if vx > vy:
                cs = ax
            elif vy > vx:
                cs = ay
            else:
                cs = ax | ay
        else:
            mx, ax = sx
            my, ay = sy
            cs = self._chosen_mask(ev, kind, mx | my, ucache)
        fails = []
        rx = cs & mx
        if rx and rx != ax:
            fails.append("N1")
        ry = cs & my
        if ry and ry != ay:
            fails.append("N2")
        return ("fail", tuple(fails)) if fails else ("pass", ())

    # -- shape (a) ---------------------------------------------------------

    def _block_a(self, a: Event, b: Event):
        """Preprocessed state shared by all instances at one (A, B)."""
        e1 = a & b
        e2 = a.complement() & b
        ev1 = self.event_data(e1)
        ev2 = self.event_data(e2)
        if self.members is not None and (ev1.zero_mass or ev2.zero_mass):
            return None
        return {
            "a": a,
            "b": b,
            "e1": ev1,
            "e2": ev2,
            "me": {},
            "col": {},
            "icol": {},
        }

    def _me_row(self, block, kind: str, zc: int) -> list:
        """Two-stage decomposition verdicts for every class against z-class zc.

        Entry c is True when the conditional lower (or upper, for the
        maximax rule) expectation of the composite gamble equals that of
        the two-valued gamble built from the stagewise envelope values;
        tested exactly.
        """
        row = block["me"].get(zc)
        if row is not None:
            return row
        ev1, ev2 = block["e1"], block["e2"]
        k = range(len(ev1.mass))
        pick = min if kind != "gamma_maximax" else max
        c2 = pick(ev2.sums[m][zc] / ev2.mass[m] for m in k)
        row = []
        for ci in range(len(ev1.reps)):
            full = pick(
                (ev1.sums[m][ci] + ev2.sums[m][zc]) / (ev1.mass[m] + ev2.mass[m])
                for m in k
            )
            c1 = pick(ev1.sums[m][ci] / ev1.mass[m] for m in k)
            staged = pick(
                (c1 * ev1.mass[m] + c2 * ev2.mass[m]) / (ev1.mass[m] + ev2.mass[m])
                for m in k
            )
            row.append(full == staged)
        block["me"][zc] = row
        return row

    def _gamma_column(self, block, kind: str, zc: int) -> list:
        """Composite gamma values for every class against z-class zc."""
        col = block["col"].get(zc)
        if col is None:
            ev1, ev2 = block["e1"], block["e2"]
            k = range(len(ev1.mass))
            pick = min if kind == "gamma_maximin" else max
            col = [
                pick(
                    (ev1.sums[m][c] + ev2.sums[m][zc])
                    / (ev1.mass[m] + ev2.mass[m])
                    for m in k
                )
                for c in range(len(ev1.reps))
            ]
            block["col"][zc] = col
        return col

    def _interval_column(self, block, zc: int) -> tuple[list, list]:
        """Composite expectation bounds for every class against z-class zc."""
        col = block["icol"].get(zc)
        if col is None:
            ev1, ev2 = block["e1"], block["e2"]
            k = range(len(ev1.mass))
            los, ups = [], []
            for c in range(len(ev1.reps)):
                vals = [
                    (ev1.sums[m][c] + ev2.sums[m][zc])
                    / (ev1.mass[m] + ev2.mass[m])
                    for m in k
                ]
                los.append(min(vals))
                ups.append(max(vals))
            col = (los, ups)
            block["icol"][zc] = col
        return col

    def _combo_stats_a(self, block, kind: str, combos: list[tuple[int, ...]]):
        """Per combo: (classes, local argmax/threshold data), z-independent.

        For eu and the set-valued kinds the shared z cancels from the
        comparison exactly, so the full and local solutions coincide by
        algebra and only the class list is kept (the sampled pipeline
        runs still guard that shortcut).  The other kinds carry the local
        argmax as a bitmask for the per-instance comparison.
        """
        ev1 = block["e1"]
        cls_of = ev1.cls_of
        stats = []
        if kind in ("gamma_maximin", "gamma_maximax", "maximin"):
            lv = ev1.mins if kind == "maximin" else ev1.value(kind)
            for combo in combos:
                cids = _dedup(cls_of[i] for i in combo)
                topl = max(lv[c] for c in cids)
                lmask = 0
                for c in cids:
                    if lv[c] == topl:
                        lmask |= 1 << c
                stats.append((cids, lmask))
        elif kind == "interval_dominance":
            lo1, up1 = ev1.bounds()
            for combo in combos:
                cids = _dedup(cls_of[i] for i in combo)
                thr = max(lo1[c] for c in cids)
                lmask = 0
                for c in cids:
                    if up1[c] >= thr:
                        lmask |= 1 << c
                stats.append((cids, lmask))
        else:
            for combo in combos:
                stats.append((_dedup(cls_of[i] for i in combo), 0))
        return stats

    def _eval_a(self, block, kind: str, stat, zc: int):
        """Verdict for one shape (a) instance from hoisted per-combo data."""
        cids, lmask = stat
        if self.limits.require_marginal_extension and self.members is not None:
            me = self._me_row(block, kind, zc)
            if any(not me[c] for c in cids):
                return "skip", ()
        if kind in ("gamma_maximin", "gamma_maximax"):
            col = self._gamma_column(block, kind, zc)
            best = None
            fmask = 0
            for c in cids:
                v = col[c]
                if best is None or v > best:
                    best = v
                    fmask = 1 << c
                elif v == best:
                    fmask |= 1 << c
        elif kind == "maximin":
            mins1 = block["e1"].mins
            mz = block["e2"].mins[zc]
            best = None
            fmask = 0
            for c in cids:
                v = mins1[c]
                if v > mz:
                    v = mz
                if best is None or v > best:
                    best = v
                    fmask = 1 << c
                elif v == best:
                    fmask |= 1 << c
        elif kind == "interval_dominance":
            los, ups = self._interval_column(block, zc)
            thr = max(los[c] for c in cids)
            fmask = 0
            for c in cids:
                if ups[c] >= thr:
                    fmask |= 1 << c
        else:
            # eu: the shared z shifts every option's expectation equally;
            # set-valued kinds: comparisons depend on pairwise differences
            # and the shared z cancels from them, so full equals local.
            return "pass", ()
        return ("pass", ()) if fmask == lmask else ("fail", ("N1",))

    # -- instance reconstruction and verification ---------------------------

    def _instance_b(self, b: Event, cx, cy) -> CanonicalInstanceB:
        return CanonicalInstanceB(
            tuple(self.pool[i] for i in cx),
            tuple(self.pool[i] for i in cy),
            b,
        )

    def _instance_a(self, a: Event, b: Event, combo, zi) -> CanonicalInstanceA:
        return CanonicalInstanceA(
            a, tuple(self.pool[i] for i in combo), self.pool[zi], b
        )

    def _verify(self, inst, fast: tuple[str, tuple[str, ...]]) -> None:
        ref = _pipeline_verdict(self.choice, self.model, inst)
        if ref[0] != fast[0] or set(ref[1]) != set(fast[1]):
            raise RuntimeError(
                "fast canonical evaluation disagrees with the tree pipeline"
                f" on {inst!r}: fast={fast} pipeline={ref}"
            )

    # -- the scan ------------------------------------------------------------

    def _combos(self, elig: list[int], bound: int) -> list[tuple[int, ...]]:
        return [
            c
            for size in range(1, min(bound, len(elig)) + 1)
            for c in itertools.combinations(elig, size)
        ]

    def _plan(self) -> tuple[list, int]:
        """Blocks of instances, in deterministic order, plus the total count."""
        lim = self.limits
        events = all_events(self.space)
        bs = lim.events_b if lim.events_b is not None else events
        as_ = (
            lim.events_a
            if lim.events_a is not None
            else tuple(e for e in events if e != self.space.omega())
        )
        blocks = []
        total = 0
        for shape in lim.shapes:
            if shape == "b":
                for b in bs:
                    if b.is_empty:
                        continue
                    elig = [
                        i for i in range(len(self.pool)) if b <= self.pool[i].scope
                    ]
                    xcombos = self._combos(elig, lim.max_xs)
                    unordered = lim.max_xs == lim.max_ys
                    ycombos = (
                        xcombos if unordered else self._combos(elig, lim.max_ys)
                    )
                    if unordered:
                        n = len(xcombos) * (len(xcombos) + 1) // 2
                    else:
                        n = len(xcombos) * len(ycombos)
                    if n:
                        blocks.append(("b", b, xcombos, ycombos, unordered, n))
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
                        eligx = [
                            i
                            for i in range(len(self.pool))
                            if e1 <= self.pool[i].scope
                        ]
                        eligz = [
                            i
                            for i in range(len(self.pool))
                            if e2 <= self.pool[i].scope
                        ]
                        combos = self._combos(eligx, lim.max_xs)
                        n = len(combos) * len(eligz)
                        if n:
                            blocks.append(("a", (a, b), combos, eligz, n))
                            total += n
        return blocks, total

    def run(self) -> CanonicalReport:
        # The scan visits millions of instances, so the inner loops below
        # are written flat: plain counters, bitmask verdicts, and arithmetic
        # selection of the sampled indices instead of per-instance closures.
        lim = self.limits
        blocks, total = self._plan()
        kind = self.choice.kind

        budget = lim.max_instances
        stride = 1
        if budget is not None and budget > 0 and total > budget:
            stride = -(-total // budget)  # ceil
        prefix = lim.sample_mode == "prefix"
        if prefix:
            planned = total if budget is None else min(total, budget)
        else:
            planned = -(-total // stride) if total else 0
        vstride = max(1, planned // max(1, lim.verify_sample))
        # selection is contiguous-from-the-start unless a stride thins it
        contiguous = budget is None or prefix or stride == 1

        examined = skipped = verified = 0
        next_verify = 1  # examined-counts at which a pipeline check runs
        failure = None
        base = 0  # global index of the current block's first instance

        for block in blocks:
            n = block[-1]
            if contiguous:
                if budget is not None and prefix and base >= budget:
                    break
                sel_count = n
                if budget is not None and prefix:
                    sel_count = min(n, budget - base)
                sel_from = base
            else:
                sel_from = base + (-base) % stride
                end = base + n
                sel_count = (
                    (end - 1 - sel_from) // stride + 1 if sel_from < end else 0
                )
            if sel_count == 0:
                base += n
                continue

            if block[0] == "b":
                _, b, xcombos, ycombos, unordered, _n = block
                ny = len(ycombos)
                if not self.fast:
                    bound = sel_count if contiguous else n
                    k = 0
                    done = False
                    for ci in range(len(xcombos)):
                        if done:
                            break
                        for cj in range(ci if unordered else 0, ny):
                            if k >= bound:
                                done = True
                                break
                            g = base + k
                            k += 1
                            if not contiguous and g % stride:
                                continue
                            inst = self._instance_b(b, xcombos[ci], ycombos[cj])
                            verdict = _pipeline_verdict(
                                self.choice, self.model, inst
                            )
                            if verdict[0] == "skip":
                                skipped += 1
                                continue
                            examined += 1
                            if verdict[0] == "fail":
                                failure = ("b", inst, verdict[1])
                                done = True
                                break
                else:
                    ev = self.event_data(b)
                    if self.members is not None and ev.zero_mass:
                        skipped += sel_count
                        base += n
                        continue
                    xstats = self._combo_stats_b(ev, xcombos, kind)
                    ystats = (
                        xstats
                        if unordered
                        else self._combo_stats_b(ev, ycombos, kind)
                    )
                    ucache: dict = {}
                    if contiguous and kind in _VALUE_KINDS:
                        k = 0
                        done = False
                        for ci in range(len(xcombos)):
                            if done or k >= sel_count:
                                break
                            mx, vx, ax = xstats[ci]
                            for cj in range(ci if unordered else 0, ny):
                                if k >= sel_count:
                                    done = True
                                    break
                                k += 1
                                my, vy, ay = ystats[cj]
                                if vx > vy:
                                    cs = ax
                                elif vy > vx:
                                    cs = ay
                                else:
                                    cs = ax | ay
                                rx = cs & mx
                                ry = cs & my
                                if (rx and rx != ax) or (ry and ry != ay):
                                    fails = []
                                    if rx and rx != ax:
                                        fails.append("N1")
                                    if ry and ry != ay:
                                        fails.append("N2")
                                    inst = self._instance_b(
                                        b, xcombos[ci], ycombos[cj]
                                    )
                                    examined += 1
                                    self._verify(inst, ("fail", tuple(fails)))
                                    verified += 1
                                    failure = ("b", inst, tuple(fails))
                                    done = True
                                    break
                                examined += 1
                                if examined == next_verify:
                                    next_verify += vstride
                                    inst = self._instance_b(
                                        b, xcombos[ci], ycombos[cj]
                                    )
                                    self._verify(inst, ("pass", ()))
                                    verified += 1
                    elif contiguous:
                        k = 0
                        done = False
                        for ci in range(len(xcombos)):
                            if done or k >= sel_count:
                                break
                            mx, ax = xstats[ci]
                            for cj in range(ci if unordered else 0, ny):
                                if k >= sel_count:
                                    done = True
                                    break
                                k += 1
                                my, ay = ystats[cj]
                                cs = self._chosen_mask(ev, kind, mx | my, ucache)
                                rx = cs & mx
                                ry = cs & my
                                if (rx and rx != ax) or (ry and ry != ay):
                                    fails = []
                                    if rx and rx != ax:
                                        fails.append("N1")
                                    if ry and ry != ay:
                                        fails.append("N2")
                                    inst = self._instance_b(
                                        b, xcombos[ci], ycombos[cj]
                                    )
                                    examined += 1
                                    self._verify(inst, ("fail", tuple(fails)))
                                    verified += 1
                                    failure = ("b", inst, tuple(fails))
                                    done = True
                                    break
                                examined += 1
                                if examined == next_verify:
                                    next_verify += vstride
                                    inst = self._instance_b(
                                        b, xcombos[ci], ycombos[cj]
                                    )
                                    self._verify(inst, ("pass", ()))
                                    verified += 1
                    else:
                        # thinned by stride: map each selected global index
                        # back to its (row, column) pair
                        if unordered:
                            offs = [0] * (len(xcombos) + 1)
                            for ci in range(len(xcombos)):
                                offs[ci + 1] = offs[ci] + (ny - ci)
                        for g in range(sel_from, base + n, stride):
                            k = g - base
                            if unordered:
                                ci = bisect.bisect_right(offs, k) - 1
                                cj = ci + (k - offs[ci])
                            else:
                                ci, cj = divmod(k, ny)
                            verdict = self._verdict_b_fast(
                                ev, kind, xstats[ci], ystats[cj], ucache
                            )
                            examined += 1
                            if verdict[0] == "fail":
                                inst = self._instance_b(
                                    b, xcombos[ci], ycombos[cj]
                                )
                                self._verify(inst, verdict)
                                verified += 1
                                failure = ("b", inst, verdict[1])
                                break
                            if examined == next_verify:
                                next_verify += vstride
                                inst = self._instance_b(
                                    b, xcombos[ci], ycombos[cj]
                                )
                                self._verify(inst, ("pass", ()))
                                verified += 1
            else:
                _, (a, b), combos, eligz, _n = block
                nz = len(eligz)
                if not self.fast:
                    bound = sel_count if contiguous else n
                    k = 0
                    done = False
                    for ci in range(len(combos)):
                        if done:
                            break
                        for zj in range(nz):
                            if k >= bound:
                                done = True
                                break
                            g = base + k
                            k += 1
                            if not contiguous and g % stride:
                                continue
                            inst = self._instance_a(a, b, combos[ci], eligz[zj])
                            verdict = _pipeline_verdict(
                                self.choice, self.model, inst
                            )
                            if verdict[0] == "skip":
                                skipped += 1
                                continue
                            examined += 1
                            if verdict[0] == "fail":
                                failure = ("a", inst, verdict[1])
                                done = True
                                break
                else:
                    blk = self._block_a(a, b)
                    if blk is None:
                        skipped += sel_count
                        base += n
                        continue
                    filtered = (
                        lim.require_marginal_extension and self.members is not None
                    )
                    if contiguous and not filtered and kind in _SHARED_Z_CANCELS:
                        # every instance passes by the shared-z cancellation;
                        # count in bulk, keeping the verification cadence
                        prev = examined
                        examined += sel_count
                        while next_verify <= examined:
                            k = next_verify - prev - 1
                            inst = self._instance_a(
                                a, b, combos[k // nz], eligz[k % nz]
                            )
                            self._verify(inst, ("pass", ()))
                            verified += 1
                            next_verify += vstride
                    else:
                        stats = self._combo_stats_a(blk, kind, combos)
                        cls2 = blk["e2"].cls_of
                        zcs = [cls2[zi] for zi in eligz]
                        if contiguous:
                            k = 0
                            done = False
                            for ci in range(len(combos)):
                                if done or k >= sel_count:
                                    break
                                stat = stats[ci]
                                for zj in range(nz):
                                    if k >= sel_count:
                                        done = True
                                        break
                                    k += 1
                                    verdict = self._eval_a(
                                        blk, kind, stat, zcs[zj]
                                    )
                                    if verdict[0] == "skip":
                                        skipped += 1
                                        continue
                                    examined += 1
                                    if verdict[0] == "fail":
                                        inst = self._instance_a(
                                            a, b, combos[ci], eligz[zj]
                                        )
                                        self._verify(inst, verdict)
                                        verified += 1
                                        failure = ("a", inst, verdict[1])
                                        done = True
                                        break
                                    if examined == next_verify:
                                        next_verify += vstride
                                        inst = self._instance_a(
                                            a, b, combos[ci], eligz[zj]
                                        )
                                        self._verify(inst, ("pass", ()))
                                        verified += 1
                        else:
                            for g in range(sel_from, base + n, stride):
                                k = g - base
                                ci, zj = divmod(k, nz)
                                verdict = self._eval_a(
                                    blk, kind, stats[ci], zcs[zj]
                                )
                                if verdict[0] == "skip":
                                    skipped += 1
                                    continue
                                examined += 1
                                if verdict[0] == "fail":
                                    inst = self._instance_a(
                                        a, b, combos[ci], eligz[zj]
                                    )
                                    self._verify(inst, verdict)
                                    verified += 1
                                    failure = ("a", inst, verdict[1])
                                    break
                                if examined == next_verify:
                                    next_verify += vstride
                                    inst = self._instance_a(
                                        a, b, combos[ci], eligz[zj]
                                    )
                                    self._verify(inst, ("pass", ()))
                                    verified += 1
            base += n
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
