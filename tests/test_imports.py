"""The library runs without networkx and imports only what a caller reads.

networkx is the test suite's reference (the ``dev`` extra), never a
runtime dependency: every family is laid out in ``repro.network.builders``
itself.  Each test here runs a fresh interpreter whose ``sys.meta_path``
refuses to import networkx, so a stray module-level ``import networkx``
anywhere on these paths fails it.  The package root imports its
subpackages only when one of their names is read.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Prepended to every child script: a finder that refuses networkx.
REFUSE_NETWORKX = textwrap.dedent(
    """
    import sys

    class _RefuseNetworkx:
        def find_spec(self, name, path=None, target=None):
            if name == "networkx" or name.startswith("networkx."):
                raise ModuleNotFoundError(f"networkx is refused here: {name}", name=name)
            return None

    sys.meta_path.insert(0, _RefuseNetworkx())
    """
)


def _child(script):
    """Run ``script`` in a fresh interpreter that refuses networkx; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", REFUSE_NETWORKX + textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run(script):
    """``_child``'s stdout, which must be one JSON value."""
    return json.loads(_child(script))


def _loaded(prefix):
    return f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"


def test_the_root_imports_no_subpackage():
    assert _run("import json, repro\n" + _loaded("repro.")) == []


def test_the_mega_import_loads_only_its_layers():
    loaded = _run("import json, repro.vectorized\n" + _loaded("repro."))
    assert {name.split(".")[1] for name in loaded} == {"encoding", "network", "vectorized"}


def test_every_runtime_path_runs_without_networkx():
    script = """
    import json
    import repro
    from repro.analysis.experiments import run_experiment
    from repro.network import FAMILY_BUILDERS
    from repro.service import execute_job, normalize_request
    from repro.vectorized import mega_gadget_batch

    sizes = {f"{family}-{n}": FAMILY_BUILDERS[family](n).num_nodes
             for family in sorted(FAMILY_BUILDERS) for n in (8, 33)}
    rows = len(run_experiment("E1").rows)
    mega = len(mega_gadget_batch(1000, [0]))
    advice = execute_job(normalize_request({"job": "advice", "family": "grid", "n": 33}))
    simulate = execute_job(normalize_request({"job": "simulate", "family": "random_tree", "n": 33}))
    print(json.dumps({
        "families": len(sizes), "rows": rows, "mega": mega,
        "jobs": [sorted(advice), sorted(simulate)],
        "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
    }))
    """
    out = _run(script)
    assert out["families"] == 2 * 13
    assert out["rows"] > 0 and out["mega"] == 1
    assert all(out["jobs"])
    assert out["networkx"] == []


def test_the_cli_lists_without_networkx():
    script = """
    import runpy
    sys.argv = ["repro", "list"]
    runpy.run_module("repro", run_name="__main__")
    """
    assert "E1: " in _child(script)
