#!/usr/bin/env python3
"""Record the expected results of check-synth and fuzz-mixed.

Run from the repository root, only when the pools or their generators change:

    python3 perfbench/record.py [check-synth] [fuzz-mixed]

Before writing, the recorded results are cross-checked once:

- the EU solution of each synthetic tree equals ``backward_induct_eu``;
- every EU verdict holds (expected utility is subtree perfect);
- no fuzz tree lists a theorem inconsistency;
- each synthetic tree gives the same answers under two presentations.

A failed cross-check aborts before its file is written.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

PRESENTATIONS = (1, 2)  # of each synthetic tree, which must agree


def record_check_synth(pkg) -> dict:
    trees = []
    for index in range(workloads.SYNTH_TREES):
        rules = {}
        for presentation in PRESENTATIONS:
            tree, credal, joint = workloads.synth_problem(pkg, index, presentation)
            for rule in workloads.SYNTH_RULES:
                model = joint if rule == "eu" else credal
                verdicts = pkg.check_subtree_perfect(
                    tree, pkg.ChoiceFunction(rule), model
                )
                summary = workloads.summarize_verdicts(verdicts)
                if rules.setdefault(rule, summary) != summary:
                    raise SystemExit(f"tree {index} {rule}: presentations "
                                     f"{PRESENTATIONS} disagree")
                if rule == "eu":
                    _check_eu(pkg, index, tree, joint, verdicts)
        trees.append(rules)
        print(f"tree {index}: {len(tree.node_ids())} nodes", flush=True)
    return {"trees": trees}


def _check_eu(pkg, index, tree, joint, verdicts) -> None:
    if not pkg.all_hold(verdicts):
        raise SystemExit(f"tree {index}: an EU verdict fails")
    induced = {workloads.strategy_key(s) for s in pkg.backward_induct_eu(tree, joint)}
    solved = {workloads.strategy_key(s) for s in verdicts[0].restricted_solution}
    if induced != solved:
        raise SystemExit(f"tree {index}: EU solution differs from backward induction")


def record_fuzz_mixed(pkg) -> dict:
    blocks = []
    for block in range(workloads.FUZZ_POOL):
        entry = {}
        for pair, (rule, _, _) in enumerate(workloads.FUZZ_PAIRS):
            cfg = workloads.fuzz_config(pkg, block, pair)
            report = pkg.fuzz_equivalence(pkg.ChoiceFunction(rule), None, cfg)
            if report.theorem_inconsistency:
                raise SystemExit(f"block {block} {rule}: theorem inconsistency "
                                 f"{report.theorem_inconsistency}")
            entry[rule] = workloads.summarize_report(report)
        blocks.append(entry)
        if block % 25 == 0:
            print(f"block {block}", flush=True)
    return {"pool": workloads.FUZZ_POOL, "pairs": workloads.FUZZ_PAIRS,
            "blocks": blocks}


RECORDERS = {"check-synth": record_check_synth, "fuzz-mixed": record_fuzz_mixed}


def main(names: list[str]) -> None:
    pkg = run.load()
    workloads.EXPECTED.mkdir(exist_ok=True)
    for name in names or RECORDERS:
        doc = RECORDERS[name](pkg)
        path = workloads.EXPECTED / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
