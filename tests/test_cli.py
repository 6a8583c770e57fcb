"""Scenario parsing/validation, CSV emission, CLI verbs, and exit codes."""
from __future__ import annotations

import concurrent.futures
import copy
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfbp.cli as cli
from lfbp.cli import (
    ScenarioConfig,
    ValidationError,
    er_batch,
    load_scenario,
    scenario_from_dict,
    sweep,
)
from lfbp.flow import max_flow_undirected
from lfbp.graph import InvariantViolation
from lfbp.sim import SUMMARY_FIELDS, run

from conftest import bundled_scenario_names, scenario_to_dict, write_scenario


def minimal_doc(**overrides):
    doc = {
        "version": 1,
        "name": "mini",
        "nodes": [0, 1, 2],
        "edges": [[0, 1, 2], [1, 2, 1]],
        "commodities": [{"id": 0, "source": 0, "dest": 2, "rate": 1.0}],
        "initial_dag": "by_id",
        "lfbp": {"thresholds": [10], "periods": [20]},
        "topology": None,
        "load_factors": [0.5],
        "horizon": 50,
        "seeds": [1],
    }
    doc.update(overrides)
    return doc


class TestBundledScenarios:
    def test_all_present_and_valid(self):
        names = bundled_scenario_names()
        assert {
            "grid4x4.scn",
            "grid4x4_multi.scn",
            "sixnode_detect.scn",
            "sixnode_fixed.scn",
        } <= set(names)
        for name in names:
            load_scenario(name)

    def test_sixnode_fixed_values(self):
        config = load_scenario("sixnode_fixed.scn")
        assert len(config.network.nodes) == 6
        assert max_flow_undirected(config.network) == 15
        assert config.lfbp_params.thresholds == (60,)
        assert config.lfbp_params.periods == (150, 50)

    def test_grid_values(self):
        config = load_scenario("grid4x4.scn")
        assert len(config.network.nodes) == 16
        assert len(config.network.capacity) == 24
        assert all(c == 6 for c in config.network.capacity.values())
        assert config.topology.fail_prob == 1e-4
        assert config.topology.recover_prob == 1e-3

    def test_multi_commodity_values(self):
        config = load_scenario("grid4x4_multi.scn")
        assert [c.rate for c in config.commodities] == [7.18, 6.96, 9.86]
        assert [(c.source, c.dest) for c in config.commodities] == [(1, 16), (4, 13), (5, 8)]
        assert config.dummy_scale == 500


class TestScenarioParsing:
    def test_minimal_round_trip(self, tmp_path):
        config = scenario_from_dict(minimal_doc())
        path = tmp_path / "mini.scn"
        write_scenario(config, path)
        assert load_scenario(path) == config

    def test_bundled_round_trip(self, tmp_path):
        for name in bundled_scenario_names():
            config = load_scenario(name)
            path = tmp_path / name
            write_scenario(config, path)
            assert load_scenario(path) == config

    def test_negative_capacity_names_edge(self):
        with pytest.raises(ValidationError, match=r"edges.*\{1,2\}"):
            scenario_from_dict(minimal_doc(edges=[[0, 1, 2], [1, 2, -4]]))

    def test_fraction_capacity_string(self):
        config = scenario_from_dict(minimal_doc(edges=[[0, 1, "3/4"], [1, 2, 1]]))
        assert config.network.capacity[(0, 1)] == Fraction(3, 4)

    def test_missing_field_named(self):
        doc = minimal_doc()
        del doc["horizon"]
        with pytest.raises(ValidationError, match="horizon"):
            scenario_from_dict(doc)

    def test_bad_load_factor(self):
        with pytest.raises(ValidationError, match="load_factors"):
            scenario_from_dict(minimal_doc(load_factors=[0.0]))

    def test_duplicate_commodity_id_rejected(self):
        commodities = [
            {"id": 0, "source": 0, "dest": 2, "rate": 1.0},
            {"id": 0, "source": 1, "dest": 2, "rate": 0.5},
        ]
        with pytest.raises(ValidationError, match=r"commodities\[1\]\.id: duplicate commodity id 0"):
            scenario_from_dict(minimal_doc(commodities=commodities))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        commodities = [{"id": 0, "source": 0, "dest": 2, "rate": rate}]
        message = rf"^scenario\.commodities\[0\]: commodity 0: rate must be finite and nonnegative, got {rate}$"
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_doc(commodities=commodities))

    def test_json_nan_rate_rejected(self, tmp_path):
        path = tmp_path / "nan.scn"
        path.write_text(json.dumps(minimal_doc()).replace('"rate": 1.0', '"rate": NaN'))
        message = r"^nan\.scn\.commodities\[0\]: commodity 0: rate must be finite and nonnegative, got nan$"
        with pytest.raises(ValidationError, match=message):
            load_scenario(path)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), "nan"])
    def test_non_finite_load_factor_rejected(self, factor):
        # The string "nan" is not a JSON number, so its type is what is wrong.
        if isinstance(factor, str):
            message = r"load_factors\[1\]: expected a number, got str"
        else:
            message = rf"^scenario\.load_factors\[1\]: load factor must be finite and positive, got {factor}$"
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_doc(load_factors=[0.5, factor]))

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"commodities": [{"id": 0, "source": 0, "dest": 2, "rate": "0.5"}]}, r"commodities\[0\]\.rate"),
            ({"load_factors": ["0.5"]}, r"load_factors\[0\]"),
            ({"dummy_scale": "0.5"}, "dummy_scale"),
            ({"topology": {"fail_prob": "0.5", "recover_prob": 0.5}}, r"topology\.fail_prob"),
        ],
        ids=["rate", "load_factors", "dummy_scale", "fail_prob"],
    )
    def test_numeric_string_rejected_naming_field(self, overrides, field):
        # Every number of a scenario is a JSON number, never a string.
        with pytest.raises(ValidationError, match=rf"^scenario\.{field}: expected a number, got str$"):
            scenario_from_dict(minimal_doc(**overrides))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_bad_dummy_scale_rejected(self, scale):
        message = r"^scenario\.dummy_scale: dummy_scale must be finite and nonnegative, got "
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_doc(dummy_scale=scale))

    def test_dummy_scale_beyond_float_range_at_smallest_load_rejected(self):
        # floor(dummy_scale / load) startup packets: 1e308 / 0.5 is no float
        message = r"^scenario\.load_factors\[1\]: dummy_scale / load = 1e\+308 / 0\.5 is beyond the float range$"
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_doc(dummy_scale=1e308, load_factors=[1.0, 0.5]))

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"lfbp": {"threshold": [10]}}, r"lfbp\.threshold"),
            ({"topolgy": {"fail_prob": 1e-4, "recover_prob": 1e-3}}, "topolgy"),
            ({"initial_DAG": "optimal"}, "initial_DAG"),
            (
                {"commodities": [{"id": 0, "source": 0, "dest": 2, "rate": 1.0, "dummy_packet": 5000}]},
                r"commodities\[0\]\.dummy_packet",
            ),
        ],
        ids=["lfbp.threshold", "topolgy", "initial_DAG", "dummy_packet"],
    )
    def test_misspelled_field_rejected(self, overrides, field):
        # Each object accepts only the fields it reads, so a typo is not
        # simulated as the field's default.
        with pytest.raises(ValidationError, match=rf"^scenario\.{field}: unknown field$"):
            scenario_from_dict(minimal_doc(**overrides))

    @pytest.mark.parametrize(("rate", "factors"), [(800.0, [0.5, 1.0]), (100.0, [0.5, 7.5])])
    def test_poisson_mean_above_limit_rejected(self, rate, factors):
        # every load factor is checked, and the message names the one whose
        # Poisson mean rate x load is above the limit
        commodities = [{"id": 0, "source": 0, "dest": 2, "rate": rate}]
        message = r"^scenario\.load_factors\[1\]: commodity 0: Poisson mean .* exceeds 700$"
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(minimal_doc(commodities=commodities, load_factors=factors))

    def test_poisson_mean_at_limit_accepted(self):
        commodities = [{"id": 0, "source": 0, "dest": 2, "rate": 700.0}]
        scenario_from_dict(minimal_doc(commodities=commodities, load_factors=[1.0]))

    def test_cyclic_explicit_orientation_rejected(self):
        doc = minimal_doc(
            edges=[[0, 1, 1], [1, 2, 1], [0, 2, 1]],
            initial_dag=[[0, 1], [1, 2], [2, 0]],
        )
        with pytest.raises(ValidationError, match="initial_dag"):
            scenario_from_dict(doc)

    def test_unknown_version(self):
        with pytest.raises(ValidationError, match="version"):
            scenario_from_dict(minimal_doc(version=9))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="not found"):
            load_scenario("/definitely/missing.scn")

    def test_unknown_bundled_name(self):
        with pytest.raises(ValidationError, match=r"^scenario not found \(no file or bundled name\): nope\.scn$"):
            load_scenario("nope.scn")


def field_paths(doc, path=()):
    """Every key and list position of a scenario document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def field_name(path) -> str:
    """The innermost named field on a path: ``rate`` for
    ``commodities[0].rate``, ``edges`` for ``edges[3][2]``."""
    return [key for key in path if isinstance(key, str)][-1]


OUT_OF_RANGE_ID = 10**6


def mutate(doc, path, kind, wrong):
    """A copy of doc with the field at path made wrong in one way."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    old = parent[key]
    if kind == "missing":
        del parent[key]
    elif kind == "wrong type":
        parent[key] = wrong
    elif kind == "nan":
        parent[key] = float("nan")
    elif kind == "negative":
        parent[key] = -abs(old) - 1 if isinstance(old, (int, float)) and not isinstance(old, bool) else -1
    else:  # out-of-range id
        parent[key] = OUT_OF_RANGE_ID
    return doc


class TestSchemaFuzz:
    """One field of a bundled scenario made wrong: the document either
    round-trips or is rejected with a ValidationError that names the field."""

    @given(
        name=st.sampled_from(bundled_scenario_names()),
        data=st.data(),
        kind=st.sampled_from(["wrong type", "nan", "negative", "missing", "out-of-range id"]),
        wrong=st.sampled_from(["x", None, [], {}, True, 1.5, [1, 2, 3], "1/0", float("inf")]),
    )
    @settings(max_examples=600, deadline=None)
    def test_mutated_field_round_trips_or_is_named(self, name, data, kind, wrong):
        doc = scenario_to_dict(load_scenario(name))
        paths = list(field_paths(doc))
        if kind == "missing":
            paths = [p for p in paths if isinstance(p[-1], str)]
        path = data.draw(st.sampled_from(paths))
        mutated = mutate(doc, path, kind, wrong)
        try:
            config = scenario_from_dict(mutated)
        except ValidationError as exc:
            assert field_name(path) in str(exc), (path, kind, str(exc))
            return
        again = scenario_from_dict(scenario_to_dict(config))
        assert again == config, (path, kind)
        assert scenario_to_dict(again) == scenario_to_dict(config)

    def test_every_field_is_reachable(self):
        names = set()
        for name in bundled_scenario_names():
            names |= {field_name(p) for p in field_paths(scenario_to_dict(load_scenario(name)))}
        assert {"nodes", "edges", "rate", "dummy_packets", "initial_dag", "thresholds",
                "fail_prob", "dummy_scale", "load_factors", "seeds"} <= names

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            (("edges", 0, 2), float("inf"), r"edges\[0\]\.capacity"),
            (("edges", 0, 2), "1/0", r"edges\[0\]\.capacity"),
            (("nodes", 0), "x", r"nodes\[0\]: expected an integer"),
            (("commodities", 0), "x", r"commodities\[0\]: expected an object"),
            (("commodities", 0, "dummy_packets"), "x", r"dummy_packets: expected"),
            pytest.param(
                ("commodities", 0, "dummy_packets"),
                -1,
                r"^scenario\.commodities\[0\]: commodity 0: dummy_packets must be nonnegative, got -1$",
                id="negative-dummy-packets",
            ),
            (("commodities", 0, "source"), OUT_OF_RANGE_ID, r"commodities\[0\]\.source: .* not one of the nodes"),
            (("lfbp",), "x", r"lfbp: expected an object"),
            (("lfbp", "periods", 0), float("inf"), r"periods\[0\]: expected an integer"),
            (("lfbp", "thresholds", 0), "x", r"thresholds\[0\]"),
            (("lfbp", "rescale_every"), -1, r"lfbp\.rescale_every: unknown field"),
            (("topology",), 5, r"topology: expected an object"),
            (("load_factors", 0), "x", r"load_factors\[0\]"),
            (("seeds", 0), "x", r"seeds\[0\]: expected an integer"),
            (("dummy_scale",), "x", r"dummy_scale"),
            pytest.param(("nodes",), [1, 1], r"scenario\.nodes: node IDs must be unique", id="duplicate-node"),
            pytest.param(("commodities",), [], r"scenario\.commodities: at least one commodity", id="no-commodity"),
            pytest.param(("seeds",), [], r"scenario\.seeds: at least one seed", id="no-seed"),
            pytest.param(
                ("load_factors",),
                [0.5, 0.5],
                r"^scenario\.load_factors: each load factor may be given once, got \[0\.5, 0\.5\]$",
                id="repeated-load-factor",
            ),
            pytest.param(
                ("load_factors",),
                [0.5, float("nan")],
                r"^scenario\.load_factors\[1\]: load factor must be finite and positive, got nan$",
                id="nan-load-factor",
            ),
            pytest.param(
                ("seeds",), [1, 1], r"^scenario\.seeds: each seed may be given once, got \[1, 1\]$", id="repeated-seed"
            ),
            pytest.param(
                ("commodities", 0, "rate"),
                10**400,
                r"scenario\.commodities\[0\]\.rate: int too large to convert to float",
                id="int-beyond-float-range",
            ),
            pytest.param(
                ("topology", "fail_prob"),
                1.5,
                r"^scenario\.topology: fail_prob must be in \[0,1\], got 1\.5$",
                id="fail-prob-above-one",
            ),
            pytest.param(
                ("topology", "recover_prob"),
                -0.1,
                r"^scenario\.topology: recover_prob must be in \[0,1\], got -0\.1$",
                id="recover-prob-negative",
            ),
            pytest.param(
                ("topology", "fail_prob"),
                float("nan"),
                r"^scenario\.topology: fail_prob must be in \[0,1\], got nan$",
                id="fail-prob-nan",
            ),
            pytest.param(
                ("commodities", 0, "source"),
                16,
                r"^scenario\.commodities\[0\]: commodity 0: source equals destination$",
                id="source-is-dest",
            ),
            pytest.param(
                ("initial_dag", 0),
                [1, 16],
                r"^scenario\.initial_dag: directed pair \(1,16\) is not one of the network's edges$",
                id="pair-not-an-edge",
            ),
            pytest.param(
                ("initial_dag", 0),
                [1, 5],
                r"^scenario\.initial_dag: edge \{5,1\} oriented twice$",
                id="edge-oriented-twice",
            ),
            pytest.param(
                ("initial_dag",),
                "x",
                r"^scenario\.initial_dag: expected 'by_id', 'optimal' or pair list, got 'x'$",
                id="unknown-initial-dag",
            ),
            pytest.param(
                ("initial_dag",),
                5,
                r"^scenario\.initial_dag: expected 'by_id', 'optimal' or pair list, got 5$",
                id="initial-dag-not-a-mode",
            ),
        ],
    )
    def test_holes_the_fuzz_found(self, field, value, message, tmp_path, capsys):
        doc = scenario_to_dict(load_scenario("grid4x4.scn"))
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        with pytest.raises(ValidationError, match=message):
            scenario_from_dict(doc)
        # The same document from a file named ``scenario``, whose name is
        # the message's prefix.
        path = tmp_path / "scenario"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: ") and captured.out == ""
        assert re.search(message, captured.err.removeprefix("validation error: "))


class TestLfbpDelta:
    """Orientations are a node order with nothing numeric to size, so
    ``lfbp.delta`` and ``lfbp.rescale_every`` are unknown fields, whatever
    their value, null included."""

    @pytest.mark.parametrize("name", ["sixnode_fixed.scn", "grid4x4.scn"])
    def test_non_null_delta_rejected(self, name):
        for delta in (1, 0, -3, "1/1000", 17, 10**6, "x"):
            doc = scenario_to_dict(load_scenario(name))
            doc["lfbp"]["delta"] = delta
            with pytest.raises(ValidationError, match=r"^scenario\.lfbp\.delta: unknown field$"):
                scenario_from_dict(doc)

    @pytest.mark.parametrize("name", ["sixnode_fixed.scn", "grid4x4.scn"])
    def test_null_delta_and_rescale_every_rejected(self, name, tmp_path):
        doc = scenario_to_dict(load_scenario(name))
        assert "delta" not in doc["lfbp"] and "rescale_every" not in doc["lfbp"]
        for field, value in (("delta", None), ("rescale_every", 0), ("rescale_every", 1), ("rescale_every", 32)):
            changed = copy.deepcopy(doc)
            changed["lfbp"][field] = value
            with pytest.raises(ValidationError, match=rf"^scenario\.lfbp\.{field}: unknown field$"):
                scenario_from_dict(changed)
            # A file names itself in place of ``scenario``.
            path = tmp_path / name
            path.write_text(json.dumps(changed))
            with pytest.raises(ValidationError, match=rf"^{re.escape(name)}\.lfbp\.{field}: unknown field$"):
                load_scenario(path)

    def test_delta_on_by_id_orientation(self):
        for delta in (2, None):
            with pytest.raises(ValidationError, match=r"^scenario\.lfbp\.delta: unknown field$"):
                scenario_from_dict(minimal_doc(lfbp={"thresholds": [10], "periods": [20], "delta": delta}))


class TestSweep:
    def test_summary_schema_and_pairing(self, tmp_path):
        config = scenario_from_dict(minimal_doc(load_factors=[0.5, 1.0], seeds=[1, 2]))
        out = tmp_path / "summary.csv"
        reports = sweep(config, ("bp", "lfbp"), out, horizon=200)
        assert len(reports) == 2 * 2 * 2
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == len(reports) + 1
        # every row carries its seed
        assert all(line.split(",")[3] in {"1", "2"} for line in lines[1:])

    def test_parallel_equals_serial(self, tmp_path):
        config = scenario_from_dict(minimal_doc(load_factors=[0.5, 1.0]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep(config, ("bp", "lfbp"), a, jobs=2, horizon=300)
        sweep(config, ("bp", "lfbp"), b, jobs=1, horizon=300)
        assert a.read_bytes() == b.read_bytes()

    def test_pool_never_larger_than_cell_count(self, tmp_path, monkeypatch):
        # A recorder in place of the pool: it starts no process and maps in
        # this one.
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        config = scenario_from_dict(minimal_doc(load_factors=[0.5, 1.0, 1.5], seeds=[1, 2, 3]))
        reports = sweep(config, ("bp", "lfbp"), tmp_path / "a.csv", jobs=10_000, horizon=20)
        assert len(reports) == 18 and sizes == [18]
        sweep(config, ("bp",), tmp_path / "b.csv", jobs=4, horizon=20)
        assert sizes == [18, 4]

    @staticmethod
    def set_up_modules(*flags) -> set[str]:
        """The modules loaded after ``import lfbp`` and a scenario load in a
        fresh interpreter started with ``flags``."""
        src = str(Path(cli.__file__).resolve().parents[1])
        snippet = (
            f"import sys; sys.path.insert(0, {src!r}); import lfbp; from lfbp import cli; "
            "cli.load_scenario('grid4x4.scn'); print(' '.join(sys.modules))"
        )
        done = subprocess.run([sys.executable, *flags, "-c", snippet], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    def test_import_and_load_start_no_process_pool(self):
        # Only a sweep with jobs above 1 imports concurrent.futures (and the
        # logging it loads) and starts its process pool, which loads
        # multiprocessing.
        pool = {"multiprocessing", "concurrent.futures", "concurrent.futures.process"}
        assert not pool & self.set_up_modules("-I")

    def test_import_and_load_need_no_dataclasses(self):
        # The value types are plain classes, so set-up pays for neither
        # dataclasses nor the inspect, ast and dis modules it imports.
        # Without site, no site package can load them first.
        assert not {"dataclasses", "inspect"} & self.set_up_modules("-I", "-S")

    def test_trace_rows_written(self, tmp_path):
        config = scenario_from_dict(minimal_doc())
        out = tmp_path / "s.csv"
        sweep(config, ("bp",), out, horizon=100, bucket=50)
        trace = out.with_suffix(".trace.csv")
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "seed,slot_bucket,policy,load,total_backlog_avg,delivered,reversals,live_edges"
        assert len(lines) == 3  # two buckets for one run

    def test_last_partial_bucket_written(self, tmp_path, capsys):
        # The last bucket ends at the horizon and averages its own 50 slots.
        out = tmp_path / "p.csv"
        argv = ["run", "--scenario", "sixnode_fixed.scn", "--horizon", "250", "--trace-bucket", "100"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        rows = out.with_suffix(".trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["100", "200", "250"]
        assert rows[-1] == "1,250,lfbp,0.5,1724.46,0,6,8"
        # A bucket longer than the run is the whole run.
        report = run(load_scenario("sixnode_fixed.scn"), "lfbp", 250, bucket=1000)
        assert [row[0] for row in report.buckets] == [250]
        assert report.buckets[0][1] == report.avg_backlog

    def test_reversal_events_csv(self, tmp_path):
        config = load_scenario("sixnode_detect.scn")
        out = tmp_path / "d.csv"
        sweep(config, ("lfbp",), out, horizon=400, bucket=200)
        events = out.with_suffix(".reversals.csv")
        lines = events.read_text().strip().splitlines()
        assert lines[0] == "rho,seed,slot,commodity,edges_reversed,marked"
        assert len(lines) >= 2  # the overloaded pair must have been flagged

    def test_reversal_events_csv_without_trace_bucket(self, tmp_path):
        config = load_scenario("sixnode_detect.scn")
        out = tmp_path / "d.csv"
        sweep(config, ("lfbp",), out, horizon=400)
        assert not out.with_suffix(".trace.csv").exists()
        lines = out.with_suffix(".reversals.csv").read_text().strip().splitlines()
        assert lines[0] == "rho,seed,slot,commodity,edges_reversed,marked"
        assert len(lines) >= 2


# sha256 of the CSV that ``er_batch`` writes for (samples, n range, seed), with
# the default p and capacity range.  A change that moves a row must update
# these digests and say why.
ER_BATCH_SHA256 = {
    (40, (10, 50), 0): "90e834e4401addbbbe4714913997f69a8c6d6380939d421559c72130bdf8e92f",
    (16, (40, 80), 3): "98b209089e771cb561d558a47600d5a7fb2284b4354eedf32f73b5120bab3cb3",
}


class TestErBatch:
    @pytest.mark.parametrize("samples,n_range,seed", sorted(ER_BATCH_SHA256))
    def test_csv_digest(self, samples, n_range, seed, tmp_path):
        out = tmp_path / "er.csv"
        er_batch(samples, n_range, seed=seed, out_path=out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == ER_BATCH_SHA256[(samples, n_range, seed)]

    def test_small_batch_statistics(self, tmp_path):
        out = tmp_path / "er.csv"
        stats = er_batch(25, (6, 12), 0.5, (1, 5), seed=17, out_path=out)
        assert stats["samples"] == 25
        assert stats["mean_iterations"] < 4
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "sample,n,edges,fmax,iterations,bound"
        assert len(rows) == 26
        iterations = [int(row.split(",")[4]) for row in rows[1:]]
        assert stats["mean_iterations"] == sum(iterations) / 25
        assert stats["max_iterations"] == max(iterations)

    def test_every_sample_respects_bound(self):
        stats = er_batch(40, (5, 15), 0.5, (1, 8), seed=23)
        for row in stats["rows"]:
            assert row["iterations"] <= row["bound"]

    def test_one_undirected_max_flow_per_sample(self, monkeypatch):
        import lfbp.reversal as reversal

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return max_flow_undirected(*args, **kwargs)

        monkeypatch.setattr(cli, "max_flow_undirected", counted)
        monkeypatch.setattr(reversal, "max_flow_undirected", counted)
        er_batch(12, (6, 12), 0.5, (1, 5), seed=3)
        assert len(calls) == 12

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            er_batch(0)


class TestMainVerbs:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "--scenario", "sixnode_fixed.scn"]) == 0
        assert "ok: sixnode-fixed" in capsys.readouterr().out

    def test_python_dash_m_lfbp(self, tmp_path):
        # The package runs as a module without importing cli twice, and an
        # --out it cannot write exits 1 with a message, not a traceback.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

        def lfbp(*argv):
            return subprocess.run(
                [sys.executable, "-m", "lfbp", *argv], capture_output=True, text=True, env=env, timeout=60
            )

        done = lfbp("validate", "--scenario", "sixnode_fixed.scn")
        assert done.returncode == 0, done.stderr
        assert "ok: sixnode-fixed" in done.stdout
        assert "RuntimeWarning" not in done.stderr
        out = str(tmp_path / "missing" / "x.csv")
        done = lfbp("run", "--scenario", "sixnode_fixed.scn", "--horizon", "10", "--out", out)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"validation error: --out: {out!r} is not a file in an existing directory\n"

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("verb", ["run", "sweep", "er-batch"])
    def test_unwritable_out_exits_one_before_any_work(self, verb, out, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{verb} ran before --out was checked")

        monkeypatch.setattr(cli, "sweep", no_work)
        monkeypatch.setattr(cli, "er_batch", no_work)
        monkeypatch.chdir(tmp_path)
        argv = ["--samples", "1"] if verb == "er-batch" else ["--scenario", "sixnode_fixed.scn", "--horizon", "10"]
        assert cli.main([verb, *argv, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"validation error: --out: {out!r} is not a file in an existing directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "sibling, argv",
        [(".trace.csv", ["--policy", "bp", "--trace-bucket", "5"]), (".reversals.csv", [])],
        ids=["trace", "reversals"],
    )
    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_unwritable_sibling_exits_one_before_any_work(self, verb, sibling, argv, tmp_path, monkeypatch, capsys):
        # The trace and reversal-event files beside the summary are checked
        # too, each only when the run writes it.
        monkeypatch.chdir(tmp_path)
        Path("s" + sibling).mkdir()
        scenario = ["--scenario", "sixnode_fixed.scn", "--horizon", "10"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "sweep", lambda *args, **kwargs: pytest.fail(f"{verb} ran before --out was checked"))
            assert cli.main([verb, *scenario, *argv, "--out", "s.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"validation error: --out: 's{sibling}' is not a file in an existing directory\n"
        assert captured.out == "" and not Path("s.csv").exists()
        unwritten = ["--policy", "bp"] if sibling == ".reversals.csv" else []
        assert cli.main([verb, *scenario, *unwritten, "--out", "s.csv"]) == 0
        assert Path("s.csv").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep", "er-batch"])
    def test_out_failing_at_write_time_exits_one(self, verb, tmp_path, capsys):
        # A link into a missing directory passes the check, and opening it
        # fails once the work is done.
        out = tmp_path / "x.csv"
        out.symlink_to(tmp_path / "gone" / "x.csv")
        argv = ["--samples", "1"] if verb == "er-batch" else ["--scenario", "sixnode_fixed.scn", "--horizon", "10"]
        assert cli.main([verb, *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"validation error: --out: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert captured.out == ""

    def test_unreadable_file_exits_one_naming_it(self, tmp_path, capsys):
        # A directory, and a file that is not UTF-8 text.
        folder = tmp_path / "d"
        folder.mkdir()
        binary = tmp_path / "b.scn"
        binary.write_bytes(b"\xff\xfe{")
        for path in (folder, binary):
            assert cli.main(["validate", "--scenario", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"validation error: {path.name}: cannot read: ") and "Traceback" not in err

    def test_every_file_error_names_its_base_name(self, tmp_path, capsys):
        # A parse error, a repeated key and a field error in the same folder.
        folder = tmp_path / "sub"
        folder.mkdir()
        cases = [
            ("cut.scn", '{"version": 1,', "cut.scn: invalid JSON: "),
            ("dup.scn", '{"version": 1, "version": 1}', "dup.scn: field 'version' given twice"),
            ("h.scn", json.dumps(minimal_doc(horizon=0)), "h.scn.horizon: "),
        ]
        for name, text, message in cases:
            (folder / name).write_text(text)
            assert cli.main(["validate", "--scenario", str(folder / name)]) == 1
            assert capsys.readouterr().err.startswith(f"validation error: {message}")

    def test_zero_horizon_file_not_simulated(self, tmp_path, capsys):
        path = tmp_path / "h0.scn"
        path.write_text(json.dumps(minimal_doc(name="h0", horizon=0)))
        assert cli.main(["run", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "validation error: h0.scn.horizon: must be at least 1\n" and captured.out == ""

    def test_validate_bad_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(json.dumps(minimal_doc(load_factors=[-1])))
        assert cli.main(["validate", "--scenario", str(bad)]) == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, kind", [("5", "int"), ("null", "NoneType"), ("true", "bool"), ('"version"', "str"), ("[1]", "list")]
    )
    def test_top_level_not_an_object_exits_one(self, text, kind, tmp_path, capsys):
        bad = tmp_path / "f.scn"
        bad.write_text(text)
        assert cli.main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err == f"validation error: f.scn: expected an object, got {kind}\n"

    @pytest.mark.parametrize("verb", ["run", "sweep", "validate"])
    def test_fractional_capacity_exits_one_naming_edge(self, verb, tmp_path, capsys):
        # The schema keeps fractions for the analysis modules; the CLI only
        # simulates, and the slot engine needs integer capacities.
        doc = scenario_to_dict(load_scenario("sixnode_fixed.scn"))
        doc["edges"][3][2] = "31/2"
        path = tmp_path / "frac.scn"
        path.write_text(json.dumps(doc))
        args = {"run": ["--horizon", "100"], "sweep": ["--horizon", "100", "--out", str(tmp_path / "s.csv")]}
        assert cli.main([verb, "--scenario", str(path), *args.get(verb, [])]) == 1
        err = capsys.readouterr().err
        assert "validation error: frac.scn.edges[3].capacity:" in err
        assert "31/2" in err

    def test_run_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(
            ["run", "--scenario", "sixnode_detect.scn", "--policy", "bp",
             "--horizon", "200", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == 2

    def test_run_prints_the_summary_files_row(self, tmp_path, capsys):
        # A name with a comma and a quote is quoted on stdout as in the file.
        doc = scenario_to_dict(load_scenario("sixnode_detect.scn"))
        doc["name"] = 'six, "detect"'
        path, out = tmp_path / "q.scn", tmp_path / "q.csv"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path), "--horizon", "200", "--out", str(out)]) == 0
        [printed] = csv.reader(io.StringIO(capsys.readouterr().out))
        with open(out, newline="") as fh:
            [header, row] = csv.reader(fh)
        assert header == SUMMARY_FIELDS and printed == row and row[0] == 'six, "detect"'

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_run_stdout_is_the_summary_line(self, name, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["run", "--scenario", name, "--horizon", "100", "--out", str(out)]) == 0
        data_line = out.read_bytes().decode().split("\r\n")[1]
        assert capsys.readouterr().out == data_line + "\n"

    def test_optimal_initial_dag_validates(self, tmp_path, capsys):
        doc = scenario_to_dict(load_scenario("sixnode_fixed.scn"))
        doc["initial_dag"] = "optimal"
        path = tmp_path / "opt.scn"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).initial_dag == "optimal"
        assert cli.main(["validate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: sixnode-fixed")

    @pytest.mark.parametrize(
        ("field", "repeat", "owner"),
        [("horizon", '"horizon": 50, "seeds": [2], ', "dup.scn"), ("rate", '"rate": 1.0, ', "dup.scn.commodities[0]")],
        ids=["top-level", "in-a-commodity"],
    )
    def test_repeated_key_rejected(self, field, repeat, owner, tmp_path, capsys):
        # json.loads alone keeps a repeated key's last value and runs it.  The
        # message names the object that holds the key.
        text = json.dumps(scenario_to_dict(load_scenario("sixnode_detect.scn")))
        path = tmp_path / "dup.scn"
        path.write_text(text.replace(f'"{field}": ', repeat + f'"{field}": ', 1))
        message = f"{owner}: field {field!r} given twice"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_scenario(path)
        assert cli.main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", f"validation error: {message}\n")

    def test_run_rho_overflowing_dummy_scale_exits_one(self, capsys):
        # grid4x4_multi's dummy_scale 500 / 1e-307 is beyond the float range
        code = cli.main(["run", "--scenario", "grid4x4_multi.scn", "--rho", "1e-307", "--horizon", "10", "--out", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: --rho: dummy_scale / load = 500") and captured.out == ""

    @pytest.mark.parametrize(
        ("name", "commodity", "top", "policy"),
        [
            # one commodity's startup packets are no float, with no dummy_scale
            ("sixnode_fixed.scn", {"dummy_packets": 10**309}, {}, "bp"),
            # each commodity's floor(1.7e308 / 1.0) is a float, the three together are not
            ("grid4x4_multi.scn", {}, {"dummy_scale": 1.7e308, "load_factors": [1.0]}, "lfbp"),
        ],
        ids=["dummy_packets", "dummy_scale"],
    )
    def test_startup_packets_beyond_float_range_rejected(self, name, commodity, top, policy, tmp_path, capsys):
        # Checked at every load factor, and named by the first that fails.
        field = "load_factors[0]"
        doc = scenario_to_dict(load_scenario(name))
        doc["commodities"][0].update(commodity)
        doc.update(top)
        path = tmp_path / "big.scn"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"^big\.scn\.{re.escape(field)}: the startup packets .* are beyond the float range$"):
            load_scenario(path)
        for verb, *args in (["validate"], ["run", "--policy", policy, "--horizon", "10", "--out", ""]):
            assert cli.main([verb, "--scenario", str(path), *args]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"validation error: big.scn.{field}: the startup packets")
            assert "None" not in captured.err and captured.out == ""

    def test_run_rho_startup_packets_beyond_float_range_exits_one(self, tmp_path, capsys):
        # 3 x floor(5e307 / 1.0) packets fit a float; at --rho 0.5 the
        # 3 x 1e308 do not, though 5e307 / 0.5 itself does
        doc = scenario_to_dict(load_scenario("grid4x4_multi.scn"))
        doc.update(dummy_scale=5e307, load_factors=[1.0])
        path = tmp_path / "big.scn"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--scenario", str(path), "--horizon", "10", "--out", ""]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--scenario", str(path), "--rho", "0.5", "--horizon", "10", "--out", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: --rho: the startup packets") and captured.out == ""

    @pytest.mark.parametrize(
        "load",
        [0.0, float("nan"), float("inf"), 100.0, 1e-307],
        ids=["zero", "nan", "inf", "poisson-mean-above-700", "dummy-scale-over-load-overflows"],
    )
    def test_bad_load_factor_same_message_in_file_and_rho(self, load, tmp_path, capsys):
        # grid4x4_multi: commodity 0's rate 7.18 at load 100 is a Poisson mean
        # of 718, and dummy_scale 500 / 1e-307 is beyond the float range.  A load
        # factor in the file and --rho get the same checks and text.
        doc = scenario_to_dict(load_scenario("grid4x4_multi.scn"))
        doc["load_factors"] = [load]
        path = tmp_path / "f.scn"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--scenario", str(path)]) == 1
        from_file = capsys.readouterr()
        argv = ["run", "--scenario", "grid4x4_multi.scn", "--rho", str(load), "--horizon", "10", "--out", ""]
        assert cli.main(argv) == 1
        from_rho = capsys.readouterr()
        assert from_file.out == from_rho.out == ""
        file_text = from_file.err.removeprefix("validation error: f.scn.load_factors[0]: ")
        assert file_text != from_file.err
        assert from_rho.err == f"validation error: --rho: {file_text}"

    @pytest.mark.parametrize("rho", ["60", "nan", "inf", "-1", "0"])
    def test_run_bad_rho_exits_one_naming_rho(self, rho, tmp_path, capsys):
        # sixnode_fixed has rate 15: --rho 60 asks for a Poisson mean of 900
        out = tmp_path / "run.csv"
        code = cli.main(["run", "--scenario", "sixnode_fixed.scn", "--rho", rho,
                         "--horizon", "200", "--out", str(out)])
        assert code == 1
        assert "validation error: --rho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--scenario", "sixnode_fixed.scn", "--horizon", "-5"], "--horizon"),
            (["run", "--scenario", "sixnode_fixed.scn", "--horizon", "0"], "--horizon"),
            (["run", "--scenario", "sixnode_fixed.scn", "--horizon", "10", "--trace-bucket", "-3"], "--trace-bucket"),
            (["sweep", "--scenario", "sixnode_fixed.scn", "--out", "x.csv", "--horizon", "-1"], "--horizon"),
            (["sweep", "--scenario", "sixnode_fixed.scn", "--out", "x.csv", "--jobs", "0"], "--jobs"),
            (["sweep", "--scenario", "sixnode_fixed.scn", "--out", "x.csv", "--trace-bucket", "-1"], "--trace-bucket"),
            (["er-batch", "--samples", "0"], "--samples"),
            (["er-batch", "--n-min", "30", "--n-max", "5"], "--n-max"),
            (["er-batch", "--n-min", "1", "--n-max", "5"], "--n-min"),
            (["er-batch", "--cap-min", "5", "--cap-max", "1"], "--cap-max"),
            (["er-batch", "--cap-min", "0"], "--cap-min"),
            (["er-batch", "--p", "0"], "--p"),
            (["er-batch", "--p", "1.5"], "--p"),
            (["er-batch", "--p", "nan"], "--p"),
            (["er-batch", "--p", "inf"], "--p"),
        ],
    )
    def test_nonsensical_number_exits_one_naming_flag(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"validation error: {flag}: must be ")
        assert captured.out == "" and not (tmp_path / "x.csv").exists()

    def test_smallest_accepted_numbers_run(self, tmp_path, capsys):
        assert cli.main(["run", "--scenario", "sixnode_fixed.scn", "--horizon", "1", "--trace-bucket", "0"]) == 0
        assert cli.main(["er-batch", "--samples", "1", "--n-min", "2", "--n-max", "2", "--cap-min", "1",
                         "--cap-max", "1", "--p", "1"]) == 0
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "sixnode_fixed.scn", "--out", str(out), "--horizon", "1",
                         "--jobs", "1"]) == 0

    def test_run_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            cli.main(["run", "--scenario", "sixnode_detect.scn", "--policy", "lfbp",
                      "--horizon", "400", "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_run_writes_reversal_events_for_lfbp_only(self, tmp_path):
        # No epoch marks a node in 10 slots, so lfbp writes only the header.
        base = ["run", "--scenario", "sixnode_fixed.scn", "--horizon", "10"]
        bp, lfbp = tmp_path / "bp.csv", tmp_path / "lfbp.csv"
        assert cli.main([*base, "--policy", "bp", "--out", str(bp)]) == 0
        assert cli.main([*base, "--policy", "lfbp", "--out", str(lfbp)]) == 0
        assert bp.exists() and not bp.with_suffix(".reversals.csv").exists()
        events = lfbp.with_suffix(".reversals.csv").read_text().splitlines()
        assert events == ["rho,seed,slot,commodity,edges_reversed,marked"]

    def test_er_batch_verb(self, tmp_path, capsys):
        out = tmp_path / "er.csv"
        code = cli.main(["er-batch", "--samples", "5", "--n-min", "5", "--n-max", "8",
                         "--seed", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "mean_iterations" in capsys.readouterr().out

    def test_p_too_small_for_the_graph_size_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["er-batch", "--p", "0.0001", "--n-min", "30", "--n-max", "30", "--samples", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: --p: ")
        assert "n=30" in captured.err and "1000 tries" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_repeated_policy_exits_one(self, tmp_path, capsys):
        # A policy named twice would simulate each of its cells twice.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", "sixnode_fixed.scn", "--out", str(out), "--horizon", "10"]
        assert cli.main([*argv, "--policy", "bp", "--policy", "lfbp", "--policy", "bp"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "validation error: --policy: each policy may be given once, got bp lfbp bp\n"
        assert captured.out == "" and not out.exists()

    def test_sweep_verb(self, tmp_path):
        src = tmp_path / "mini.scn"
        src.write_text(json.dumps(minimal_doc()))
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--scenario", str(src), "--out", str(out), "--horizon", "100"])
        assert code == 0
        assert out.exists()

    def test_invariant_violation_exits_two(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise InvariantViolation("synthetic failure")

        monkeypatch.setattr(cli, "er_batch", boom)
        assert cli.main(["er-batch", "--samples", "1"]) == 2
        assert "invariant violation" in capsys.readouterr().err
