"""The benchmark's tracer against the package it wraps.

`perfbench/spans.py` wraps functions by replacing module attributes of the
package (``cli.enumerate_strategies``, ``solver.gamble_of`` ...).  Installing
it here, on a fresh import in a child process as ``perfbench/run.py`` does,
fails the suite when one of those attributes is renamed or dropped, instead
of only a traced benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """
import json, sys
sys.path.insert(0, "perfbench")
import run, spans

pkg = run.load()
tracer = spans.Tracer()
tracer.install(pkg)
patched = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._undo]
code = pkg.cli.run(["strategies", "--tree", "problems/eu-example-1.tree.json",
                    "--out", sys.argv[1]])
tracer.uninstall()
print(json.dumps({
    "code": code,
    "patched": len(patched),
    "spans": sorted({span[0] for span in tracer.spans}),
    "restored": all(getattr(owner, attr) is not wrapper
                    for owner, attr, wrapper in patched),
}))
"""


def test_the_tracer_installs_and_uninstalls_on_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path / "strategies.txt")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["patched"] > 20
    assert report["restored"]
    assert {"cli.run", "formats.load_json", "formats.parse_problem"} <= set(report["spans"])
