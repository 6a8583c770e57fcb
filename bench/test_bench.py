"""Smoke test of the benchmark harness at a tiny horizon and sample count.

    python3 -m pytest bench/test_bench.py -q

It is not part of the package's test suite.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from lfbp import overload, sim  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(wl: workloads.Workload) -> workloads.Workload:
    strata = wl.er.strata[:1] + wl.er.strata[-1:]
    return replace(wl, slot=replace(wl.slot, horizon=300, timing_slots=300), er=replace(wl.er, strata=strata, per_stratum=2))


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", {k: tiny(w) for k, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(workloads, "KERNEL_REPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def bench(capsys, workload: str, trace: int) -> tuple[int, list[str], dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), captured.err


def test_workloads_match_benchmark_json():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_bench, capsys, workload, trace):
    code, lines, result, _err = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines[:-1])
    assert f"ops_failed {result['failed']}" in lines


def wrong_overload(dag, rate):
    vec = overload.lex_min_overload.__wrapped_original__(dag, rate)
    return replace(vec, rates={n: 0 for n in vec.rates})


def raising_run(config, policy, *args, **kwargs):
    if policy == "lfbp":
        raise RuntimeError("injected failure")
    return sim.run.__wrapped_original__(config, policy, *args, **kwargs)


@pytest.mark.parametrize(
    "module, name, fake, workload",
    [
        (overload, "lex_min_overload", wrong_overload, "er_analysis"),
        (sim, "run", raising_run, "grid_multi"),
    ],
)
def test_injected_failure_is_counted(tiny_bench, capsys, monkeypatch, module, name, fake, workload):
    fake.__wrapped_original__ = getattr(module, name)
    monkeypatch.setattr(module, name, fake)
    code, lines, result, err = bench(capsys, workload, 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert f"ops_failed {result['failed']}" in lines
    assert "FAILED" in err
