"""Tests for the determinism sanitizer (DET001-DET008) and its baseline."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import (
    DET_RULES,
    apply_baseline,
    det_rule_catalog,
    lint_file,
    lint_paths,
    lint_source,
    load_baseline,
    placeholder_reasons,
    write_baseline,
)
from repro.lint.baseline import BaselineEntry, BaselineError
from repro.lint.callgraph import build_call_graph
from repro.network.graph import GraphError, edge_key, label_key

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
LIBRARY = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "lint_baseline.json")


def codes(findings):
    return sorted({f.code for f in findings})


def det_lint(source, path="<string>"):
    return lint_source(source, path=path, rules=DET_RULES)


class TestFixturesAreCaught:
    """Each known-bad DET fixture must trip exactly its intended rule."""

    @pytest.mark.parametrize(
        "filename,expected",
        [
            ("det_set_order.py", "DET001"),
            ("det_wall_clock.py", "DET002"),
            ("det_global_random.py", "DET003"),
            ("det_identity_sort.py", "DET004"),
            ("det_unsorted_listdir.py", "DET005"),
            ("det_env_read.py", "DET006"),
            ("det_float_accum.py", "DET007"),
            ("det_unthreaded_seed.py", "DET008"),
        ],
    )
    def test_fixture_flagged_with_its_code(self, filename, expected):
        findings = lint_file(os.path.join(FIXTURES, filename))
        assert codes(findings) == [expected]
        assert all(f.line > 0 and f.snippet for f in findings)

    def test_directory_sweep_reports_every_det_rule(self):
        findings = lint_paths([FIXTURES], select=["DET"])
        assert codes(findings) == [rule.code for rule in DET_RULES]


class TestSelfLint:
    """The shipped library passes its own sanitizer, modulo the baseline."""

    def test_library_det_clean_modulo_baseline(self):
        findings = lint_paths([LIBRARY], select=["DET"])
        entries = load_baseline(BASELINE)
        kept, accepted, stale = apply_baseline(findings, entries)
        assert kept == [], "new DET findings in src/repro:\n" + "\n".join(
            str(f) for f in kept
        )
        assert stale == [], "stale baseline entries: " + ", ".join(
            f"{e.code}@{e.path}" for e in stale
        )
        assert accepted, "baseline exists but absorbed nothing"

    def test_every_baseline_entry_is_justified(self):
        entries = load_baseline(BASELINE)
        assert placeholder_reasons(entries) == []
        assert all(len(e.reason.strip()) > 10 for e in entries)

    def test_cli_det_select_with_baseline_exits_zero(self, capsys):
        assert main(["lint", LIBRARY, "--select", "DET", "--baseline", BASELINE]) == 0
        assert "0 findings" in capsys.readouterr().out


class TestRuleDetails:
    """Positives and negatives per rule, straight from source text."""

    # DET001 ------------------------------------------------------------
    def test_det001_sorted_set_is_fine(self):
        assert det_lint("def f(xs):\n    s = set(xs)\n    return sorted(s)\n") == []

    def test_det001_listcomp_over_set_is_flagged(self):
        findings = det_lint("def f(xs):\n    s = set(xs)\n    return [x for x in s]\n")
        assert codes(findings) == ["DET001"]

    def test_det001_set_typed_parameter_annotation_is_tracked(self):
        source = (
            "from typing import Set\n"
            "def f(s: Set[int]):\n"
            "    out = []\n"
            "    for x in s:\n"
            "        out.append(x)\n"
            "    return out\n"
        )
        assert codes(det_lint(source)) == ["DET001"]

    def test_det001_set_knowledge_does_not_leak_between_functions(self):
        # `names` is a set in f but a list in g; g must not be flagged.
        source = (
            "def f(xs):\n"
            "    names = set(xs)\n"
            "    return names\n"
            "def g(xs):\n"
            "    names = [x for x in xs]\n"
            "    return ', '.join(names)\n"
        )
        assert det_lint(source) == []

    # DET002 ------------------------------------------------------------
    def test_det002_span_registry_module_is_exempt(self):
        source = "from time import perf_counter\ndef f():\n    return perf_counter()\n"
        assert codes(det_lint(source)) == ["DET002"]
        assert det_lint(source, path="src/repro/obs/observe.py") == []

    def test_det002_datetime_now_is_flagged(self):
        source = "import datetime\ndef f():\n    return datetime.datetime.now()\n"
        assert codes(det_lint(source)) == ["DET002"]

    # DET003 ------------------------------------------------------------
    def test_det003_seeded_random_instance_is_fine(self):
        source = "import random\ndef f(seed):\n    return random.Random(seed)\n"
        assert det_lint(source) == []

    def test_det003_unseeded_random_is_flagged(self):
        source = "import random\ndef f():\n    return random.Random()\n"
        assert "DET003" in codes(det_lint(source))

    def test_det003_fires_even_outside_model_code(self):
        # Unlike MDL003, driver/analysis code is NOT exempt.
        assert codes(det_lint("import random\nx = random.random()\n")) == ["DET003"]

    # DET004 ------------------------------------------------------------
    def test_det004_label_key_is_sanctioned(self):
        source = (
            "from repro.network.graph import label_key\n"
            "def f(nodes):\n"
            "    return sorted(nodes, key=label_key)\n"
        )
        assert det_lint(source) == []

    def test_det004_id_in_content_address_is_flagged(self):
        source = "def f(g):\n    return content_address('v1', id(g))\n"
        assert codes(det_lint(source)) == ["DET004"]

    # DET005 ------------------------------------------------------------
    def test_det005_sorted_listing_is_fine(self):
        source = "import os\ndef f(d):\n    return sorted(os.listdir(d))\n"
        assert det_lint(source) == []

    def test_det005_path_glob_is_flagged(self):
        source = "def f(p):\n    return list(p.glob('*.json'))\n"
        assert codes(det_lint(source)) == ["DET005"]

    # DET006 ------------------------------------------------------------
    def test_det006_repro_prefix_is_allowed(self):
        source = "import os\ndef f():\n    return os.environ.get('REPRO_WORKERS')\n"
        assert det_lint(source) == []

    def test_det006_key_resolved_through_module_constant(self):
        ok = (
            "import os\n"
            "WORKERS_ENV = 'REPRO_WORKERS'\n"
            "def f():\n    return os.environ.get(WORKERS_ENV)\n"
        )
        bad = (
            "import os\n"
            "CACHE_ENV = 'XDG_CACHE_HOME'\n"
            "def f():\n    return os.environ.get(CACHE_ENV)\n"
        )
        assert det_lint(ok) == []
        assert codes(det_lint(bad)) == ["DET006"]

    def test_det006_getenv_is_flagged(self):
        source = "import os\ndef f():\n    return os.getenv('HOME')\n"
        assert codes(det_lint(source)) == ["DET006"]

    # DET007 ------------------------------------------------------------
    def test_det007_sum_over_sorted_is_fine(self):
        source = "def f(xs):\n    s = set(xs)\n    return sum(sorted(s))\n"
        assert det_lint(source) == []

    def test_det007_findings_are_warnings(self):
        source = "def f(xs):\n    s = set(xs)\n    return sum(s)\n"
        findings = det_lint(source)
        assert codes(findings) == ["DET007"]
        assert all(f.severity == "warning" for f in findings)
        assert all(f.to_dict()["severity"] == "warning" for f in findings)

    # DET008 ------------------------------------------------------------
    def test_det008_threaded_kwarg_is_fine(self):
        source = (
            "import random\n"
            "def helper(items, seed=0):\n"
            "    return random.Random(seed).sample(sorted(items), 1)\n"
            "def driver(items, seed):\n"
            "    return helper(items, seed=seed)\n"
        )
        assert det_lint(source) == []

    def test_det008_instance_attribute_seed_is_fine(self):
        source = (
            "import random\n"
            "class S:\n"
            "    def __init__(self, seed):\n"
            "        self._seed = seed\n"
            "    def order(self, items):\n"
            "        rng = random.Random(self._seed)\n"
            "        out = sorted(items)\n"
            "        rng.shuffle(out)\n"
            "        return out\n"
        )
        assert det_lint(source) == []

    def test_det008_module_level_construction_is_flagged(self):
        source = "import random\nRNG = random.Random(0)\n"
        assert "DET008" in codes(det_lint(source))

    def test_det008_cross_module_drop_is_caught(self, tmp_path):
        (tmp_path / "helper.py").write_text(
            "import random\n"
            "def make_order(items, seed=0):\n"
            "    rng = random.Random(seed)\n"
            "    out = sorted(items)\n"
            "    rng.shuffle(out)\n"
            "    return out\n"
        )
        (tmp_path / "driver.py").write_text(
            "from helper import make_order\n"
            "def run(items, seed):\n"
            "    return make_order(items)\n"
        )
        findings = lint_paths([str(tmp_path)], select=["DET008"])
        assert codes(findings) == ["DET008"]
        assert any("run" in f.message and "make_order" in f.message for f in findings)


class TestCallGraph:
    def test_resolves_from_imports_and_seed_passing(self):
        import ast

        trees = {
            "a.py": ast.parse(
                "def helper(x, seed=0):\n    return x\n"
                "def local_caller(seed):\n    return helper(1, seed)\n"
            ),
            "b.py": ast.parse(
                "from a import helper\n"
                "def remote_caller(seed):\n    return helper(1)\n"
            ),
        }
        graph = build_call_graph(trees)
        assert "a.py::helper" in graph.functions
        local_sites = graph.sites_from("a.py::local_caller")
        assert [s.callee.qualname for s in local_sites] == ["helper"]
        assert local_sites[0].passes_seedish()
        remote_sites = graph.sites_from("b.py::remote_caller")
        assert [s.callee.qualname for s in remote_sites] == ["helper"]
        assert not remote_sites[0].passes_seedish()
        assert "a.py::helper" in graph.reachable_from("b.py::remote_caller")


class TestFamilySelection:
    def test_prefix_select_runs_whole_family(self):
        findings = lint_paths([FIXTURES], select=["DET"])
        assert all(f.code.startswith("DET") for f in findings)
        assert len(codes(findings)) == len(DET_RULES)

    def test_catalog_lists_every_det_code(self):
        text = det_rule_catalog()
        for rule in DET_RULES:
            assert rule.code in text
        assert main(["lint", "--list-rules"]) == 0


class TestBaselineMachinery:
    def _finding(self):
        return lint_file(os.path.join(FIXTURES, "det_wall_clock.py"))[0]

    def test_matching_is_by_suffix_code_and_snippet(self):
        f = self._finding()
        entry = BaselineEntry(
            path="fixtures/det_wall_clock.py",
            code="DET002",
            snippet=f.snippet,
            reason="test",
        )
        kept, accepted, stale = apply_baseline([f], [entry])
        assert kept == [] and accepted == [f] and stale == []

    def test_unmatched_entry_is_stale(self):
        entry = BaselineEntry(
            path="no/such/file.py", code="DET002", snippet="x = 1", reason="test"
        )
        kept, accepted, stale = apply_baseline([self._finding()], [entry])
        assert len(kept) == 1 and accepted == [] and stale == [entry]

    def test_write_then_load_round_trips(self, tmp_path):
        findings = lint_file(os.path.join(FIXTURES, "det_wall_clock.py"))
        out = tmp_path / "baseline.json"
        count = write_baseline(findings, str(out))
        assert count == len(findings)
        entries = load_baseline(str(out))
        assert placeholder_reasons(entries) == entries  # regenerated => TODO
        kept, _accepted, stale = apply_baseline(findings, entries)
        assert kept == [] and stale == []

    def test_invalid_baseline_is_rejected(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        bad.write_text(json.dumps({"accepted": [{"path": "x", "code": "DET001"}]}))
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        bad.write_text(
            json.dumps(
                {"accepted": [{"path": "x", "code": "D", "snippet": "s", "reason": " "}]}
            )
        )
        with pytest.raises(BaselineError):
            load_baseline(str(bad))

    def test_cli_stale_baseline_fails(self, tmp_path, capsys):
        # An in-play entry (its file was linted, its rule ran) that matches
        # no finding is an error: baselines must be pruned when fixed.
        stale = tmp_path / "baseline.json"
        stale.write_text(
            json.dumps(
                {
                    "accepted": [
                        {
                            "path": "fixtures/det_wall_clock.py",
                            "code": "DET002",
                            "snippet": "no_such_line = clock()",
                            "reason": "obsolete",
                        }
                    ]
                }
            )
        )
        assert (
            main(
                ["lint", os.path.join(FIXTURES, "det_wall_clock.py"),
                 "--select", "DET", "--baseline", str(stale)]
            )
            == 1
        )
        assert "stale baseline entry" in capsys.readouterr().err

    def test_entry_outside_linted_paths_is_not_stale(self):
        entry = BaselineEntry(
            path="src/repro/runner/core.py",
            code="DET002",
            snippet="now = time.monotonic()",
            reason="scheduling only",
        )
        kept, accepted, stale = apply_baseline(
            [], [entry], linted_paths=["tests/fixtures/det_wall_clock.py"]
        )
        assert kept == [] and accepted == [] and stale == []

    def test_entry_for_unselected_rule_is_not_stale(self):
        entry = BaselineEntry(
            path="src/repro/runner/core.py",
            code="DET002",
            snippet="now = time.monotonic()",
            reason="scheduling only",
        )
        kept, accepted, stale = apply_baseline(
            [], [entry], active_codes=frozenset({"MDL003"})
        )
        assert stale == []

    def test_cli_fixture_sweep_does_not_condemn_src_baseline(self, capsys):
        # The committed baseline covers src/repro/runner/core.py; linting the
        # fixtures directory must report its findings without stale errors.
        assert main(["lint", FIXTURES]) == 1
        assert "stale" not in capsys.readouterr().err

    def test_cli_mdl_select_skips_det_baseline_staleness(self, capsys):
        assert main(["lint", os.path.join(REPO_ROOT, "src", "repro"),
                     "--select", "MDL"]) == 0
        assert "stale" not in capsys.readouterr().err

    def test_cli_write_baseline(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        assert (
            main(
                ["lint", os.path.join(FIXTURES, "det_wall_clock.py"),
                 "--write-baseline", str(out)]
            )
            == 0
        )
        assert "fill in every reason" in capsys.readouterr().out
        assert load_baseline(str(out))


class TestPragmas:
    def test_det_pragma_silences_one_line(self):
        source = (
            "import os\n"
            "def f(d):\n"
            "    a = os.listdir(d)  # repro-lint: disable=DET005\n"
            "    b = os.listdir(d)\n"
            "    return a + b\n"
        )
        findings = det_lint(source)
        assert [f.line for f in findings] == [4]


class TestLabelKeyRegression:
    """The DET004 fix: label_key refuses address-based orderings."""

    def test_label_key_matches_repr_for_content_labels(self):
        for label in (3, "v", (1, "a")):
            assert label_key(label) == repr(label)

    def test_label_key_rejects_default_repr_objects(self):
        class Opaque:
            pass

        with pytest.raises(GraphError):
            label_key(Opaque())

    def test_label_key_rejects_set_labels(self):
        with pytest.raises(GraphError):
            label_key(frozenset({"a"}))

    def test_edge_key_mixed_types_uses_label_key(self):
        assert edge_key("b", 10) == edge_key(10, "b")

    def test_advice_encoding_is_hashseed_independent(self):
        # The full advice pipeline (graph -> oracle -> advice JSON) must
        # produce identical bytes under different PYTHONHASHSEED values.
        script = (
            "from repro.network.builders import FAMILY_BUILDERS\n"
            "from repro.core.oracle import advice_to_json\n"
            "from repro.oracles import LightTreeBroadcastOracle\n"
            "g = FAMILY_BUILDERS['kstar'](12)\n"
            "print(advice_to_json(LightTreeBroadcastOracle().advise(g)))\n"
        )
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
