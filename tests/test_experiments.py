"""Tests for the E1-E15 experiment registry.

Each experiment must run, produce rows, and report the paper-shaped
findings.  Most sizes are trimmed for test speed (``repro verdict`` judges
the defaults).  The E6, E9 and E11 shape checks that no verdict criterion
makes run at full size: E6 at n = 16..256 on ``complete`` and 16..512 on
``gnp_sparse``, E9 at n = 64, E11 on its default grid.
"""

import hashlib
import json

import pytest

from repro.analysis import (
    EXPERIMENTS,
    classify_growth,
    format_experiment,
    measured_series,
    run_experiment,
)
from repro.network import FAMILY_BUILDERS, GraphError
from repro.obs.events import jsonable

SMALL = (8, 16, 32)
FAMS = ("path", "complete", "gnp_sparse")


class TestRegistry:
    def test_all_ids_present(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_experiment("E99")

    def test_case_insensitive(self):
        r = run_experiment("e3", sizes=SMALL, families=FAMS)
        assert r.experiment == "E3"


class TestBuilderFailures:
    """The builder loops skip a family only when its builder refuses the size.

    ``GraphError`` is the builders' refusal of an infeasible size; any
    other exception is a bug and must reach the caller, not silently
    drop the family's rows.
    """

    LOOPS = ("E1", "E3", "E4", "E10", "E11", "E12", "E13")

    @staticmethod
    def _plant(monkeypatch, error):
        def builder(n):
            raise error

        monkeypatch.setitem(FAMILY_BUILDERS, "complete", builder)

    @staticmethod
    def _measured_families(eid):
        rows = run_experiment(eid, sizes=(8,), families=("path", "complete")).rows
        return {row.get("family") for row in rows}

    @pytest.mark.parametrize("eid", LOOPS)
    def test_unexpected_error_propagates(self, eid, monkeypatch):
        self._plant(monkeypatch, RuntimeError("planted builder bug"))
        with pytest.raises(RuntimeError, match="planted builder bug"):
            self._measured_families(eid)

    @pytest.mark.parametrize("eid", LOOPS)
    def test_refused_size_is_skipped(self, eid, monkeypatch):
        self._plant(monkeypatch, GraphError("planted refusal"))
        families = self._measured_families(eid)
        assert "path" in families and "complete" not in families


class TestE1:
    def test_shapes_hold(self):
        r = run_experiment("E1", sizes=SMALL, families=FAMS)
        assert r.rows
        for row in r.rows:
            assert row["success"]
            assert row["messages"] == row["n-1"]
            assert row["oracle_bits"] <= row["bound_bits"]

    def test_findings_mention_fit(self):
        r = run_experiment("E1", sizes=(8, 16, 32, 64), families=("complete",))
        assert any("best fit" in f for f in r.findings)


class TestE2:
    def test_all_parts_ok(self):
        r = run_experiment("E2", gadget_sizes=(8, 16), counting_exponents=(10, 16))
        assert all(row["ok"] for row in r.rows)
        parts = {row["part"] for row in r.rows}
        assert parts == {"adversary", "gadget-upper", "zero-advice", "truncation", "counting"}


class TestE3:
    def test_bound_holds_everywhere(self):
        r = run_experiment("E3", sizes=SMALL, families=FAMS)
        assert all(row["ok"] for row in r.rows)
        assert all(row["light_tree"] <= row["4n_bound"] for row in r.rows)


class TestE4:
    def test_shapes_hold(self):
        r = run_experiment("E4", sizes=SMALL, families=FAMS)
        for row in r.rows:
            assert row["success"]
            assert row["messages"] <= row["2(n-1)"]
            assert row["oracle_bits"] <= row["8n_bound"]
            assert row["M_msgs"] == row["n"] - 1


class TestE5:
    def test_all_parts_ok(self):
        r = run_experiment("E5", n=16, k=4, counting_pairs=((2**16, 4),))
        assert all(row["ok"] for row in r.rows)


class TestE6:
    @staticmethod
    def _assert_separates(r):
        """The ratio never falls and gains > 1.2x; wakeup advice fits
        n log n best and broadcast advice fits n best."""
        ratios = [row["ratio"] for row in r.rows]
        assert ratios == sorted(ratios), "advice ratio must grow with n"
        assert ratios[-1] > 1.2 * ratios[0]
        series = measured_series(r.rows, experiment="E6")
        wakeup, broadcast = series["wakeup_bits"], series["broadcast_bits"]
        assert classify_growth(wakeup.xs, wakeup.ys)[0].model == "n log n"
        assert classify_growth(broadcast.xs, broadcast.ys)[0].model == "n"

    def test_separation_direction(self):
        r = run_experiment("E6", sizes=(16, 32, 64, 128, 256), family="complete")
        self._assert_separates(r)
        assert any("n log n" in f for f in r.findings)
        assert any("across n=16..256 " in f for f in r.findings)

    def test_other_family(self):
        r = run_experiment("E6", sizes=(16, 32, 64, 128, 256, 512), family="gnp_sparse")
        self._assert_separates(r)


class TestE7:
    def test_all_ok(self):
        r = run_experiment(
            "E7", n=24, families=("complete",), schedulers=("sync", "random")
        )
        assert all(row["wakeup_ok"] and row["bcast_ok"] for row in r.rows)
        assert all(row["payloads"] <= 2 for row in r.rows)


class TestE8:
    def test_all_ok(self):
        r = run_experiment("E8", exponents=(8, 12), subdivided_factors=(1, 2))
        assert all(row["ok"] for row in r.rows)


class TestFormatting:
    def test_format_includes_findings(self):
        r = run_experiment("E3", sizes=(8, 16), families=("path",))
        text = format_experiment(r)
        assert "[E3]" in text
        assert "*" in text


class TestE9:
    def test_tradeoff_monotone(self):
        r = run_experiment("E9", n=25, families=("grid",))
        assert all(row["success"] for row in r.rows)
        msgs = [row["messages"] for row in r.rows]
        assert msgs == sorted(msgs, reverse=True)
        assert msgs[-1] == r.rows[-1]["n-1"]

    def test_extension_flagged(self):
        r = run_experiment("E9", n=16, families=("complete",))
        assert "Extension" in r.title

    @pytest.mark.parametrize("family", ("grid", "gnp_sparse", "complete"))
    def test_frontier_monotone_at_n64(self, family):
        """Along the depth cuts, messages never rise and advice never falls."""
        r = run_experiment("E9", n=64, families=(family,))
        msgs = [row["messages"] for row in r.rows]
        bits = [row["oracle_bits"] for row in r.rows]
        assert len(r.rows) >= 3
        assert msgs == sorted(msgs, reverse=True)
        assert bits == sorted(bits)


def rows_digest(result) -> str:
    """sha256 of an experiment's rows as canonical JSON."""
    blob = json.dumps(jsonable(result.rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestE10:
    #: sha256 of the canonical-JSON rows below.
    ROWS_DIGEST = "b0ba4ed7ed0ee1b3c273aaa48cf335ffe05ef1b2616c4cd8b25e921ef83b2027"
    #: sha256 of the canonical-JSON rows of the default grid.
    DEFAULT_ROWS_DIGEST = "12b39963f4ade017a3038e93eec06b64927783e1c528cdfa01860ae1aee36b6d"

    def test_gossip_shapes(self):
        r = run_experiment("E10", sizes=(8, 16), families=("complete", "random_tree"))
        assert all(row["tree_ok"] and row["flood_ok"] for row in r.rows)
        assert all(row["tree_msgs"] == row["2(n-1)"] for row in r.rows)
        assert all(row["flood_msgs"] >= row["tree_msgs"] for row in r.rows)

    def test_rows_digest_is_pinned(self):
        r = run_experiment("E10", sizes=(8, 16), families=("complete", "random_tree"))
        assert rows_digest(r) == self.ROWS_DIGEST

    def test_default_rows_digest_is_pinned(self):
        assert rows_digest(run_experiment("E10")) == self.DEFAULT_ROWS_DIGEST


class TestE11:
    def test_construction_shapes(self):
        r = run_experiment(
            "E11", sizes=(8, 16, 32, 64), families=("complete", "gnp_sparse", "grid")
        )
        assert len(r.rows) == 12
        assert all(row["advised_ok"] and row["dfs_ok"] for row in r.rows)
        assert all(row["advised_msgs"] == 0 for row in r.rows)
        assert all(row["dfs_msgs"] > row["m"] for row in r.rows)


class TestE12:
    def test_election_shapes(self):
        r = run_experiment("E12", sizes=(8, 16), families=("complete", "cycle"))
        regular = [row for row in r.rows if row["family"] != "ring/anonymous"]
        anon = [row for row in r.rows if row["family"] == "ring/anonymous"]
        assert all(row["advised_ok"] and row["minid_ok"] for row in regular)
        assert all(row["1bit_msgs"] == 0 for row in regular)
        assert anon and all(row["minid_ok"] is False for row in anon)


class TestE13:
    def test_exploration_shapes(self):
        r = run_experiment("E13", sizes=(8, 16), families=("complete", "grid"))
        assert all(row["advised_ok"] and row["dfs_ok"] for row in r.rows)
        assert all(row["advised_moves"] == row["2(n-1)"] for row in r.rows)
        assert all(row["rotor_covered"] for row in r.rows)

    #: sha256 of the canonical-JSON rows of the default grid.
    DEFAULT_ROWS_DIGEST = "12618754f1410a2191fbfe69162ea1b74ef5a3615e1babd65c33b16fa7962af9"

    def test_default_rows_digest_is_pinned(self):
        assert rows_digest(run_experiment("E13")) == self.DEFAULT_ROWS_DIGEST


class TestE14:
    def test_time_shapes(self):
        r = run_experiment("E14", n=24, families=("cycle", "complete"))
        assert all(row["bfs_ok"] and row["dfs_ok"] for row in r.rows)
        assert all(row["bfs_rounds"] <= row["flood_rounds"] for row in r.rows)
        assert all(row["dfs_rounds"] >= row["bfs_rounds"] for row in r.rows)
        complete = next(row for row in r.rows if row["family"] == "complete")
        assert complete["dfs_rounds"] == 23  # path-shaped DFS tree on K_n
        assert complete["bfs_rounds"] == 1
