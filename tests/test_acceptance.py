"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with output visible to see the verdict lines:

    pytest tests/test_acceptance.py -v -s

Heavy simulations run at desk scale; the whole module takes a few minutes.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import lcm

from lfbp.cli import er_batch, load_scenario, sweep
from lfbp.flow import max_flow, max_flow_undirected, smallest_min_cut
from lfbp.graph import Network, initial_dag, orient_by_ranking, orient_explicit
from lfbp.overload import lex_min_overload
from lfbp.protocol import mark_step
from lfbp.reversal import converge, reversal_step
from lfbp.sim import SimState, arrivals_step, bp_step, run

from conftest import exhaustive_smallest_min_cut, random_network, random_orientation, run_recording_arrivals
from oracles import brute_force_lex_min, exhaustive_delta, is_acyclic, lex_compare, overloaded_set


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    """lex_min_overload equals the grid oracle exactly on 500 random instances."""
    rng = random.Random(20240811)
    t0 = time.time()
    done = rejected = 0
    while done < 500:
        net = random_network(rng, n_min=3, n_max=6, cap_max=4, max_edges=9)
        dag = random_orientation(rng, net)
        rate = rng.randint(0, 8)
        ov = lex_min_overload(dag, rate)
        denoms = [Fraction(q).denominator for q in ov.rates.values()]
        denoms += [Fraction(f).denominator for f in ov.inducing_flow.flow.values()]
        grid = Fraction(1, lcm(*denoms))
        try:
            bf = brute_force_lex_min(dag, rate, grid=grid)
        except ValueError:
            rejected += 1  # oracle's own instance-size guard; resample
            continue
        assert bf.rates == ov.rates, (dict(net.capacity), rate, ov.rates, bf.rates)
        done += 1
    ok = done == 500
    verdict(1, ok, f"{done}/500 exact oracle matches (zero tolerance), "
                   f"{rejected} oversized instances resampled, {time.time()-t0:.1f}s")
    assert ok


def test_criterion_2_structural_properties():
    """Per-step structural properties over 1000 random instances (<=12 nodes)."""
    rng = random.Random(777)
    t0 = time.time()
    counts = {"acyclic": 0, "lex": 0, "cut": 0, "monotone": 0, "witness": 0}
    for _ in range(1000):
        net = random_network(rng, n_min=4, n_max=12, cap_max=6, p=0.4)
        dag = random_orientation(rng, net)
        rate = rng.randint(1, 14)

        # (c) overloaded set equals the exhaustively enumerated smallest min-cut
        side, cap = exhaustive_smallest_min_cut(dag)
        cut = overloaded_set(dag, rate)
        if rate <= cap:
            assert cut is None
        else:
            assert cut is not None and cut.source_side == side and cut.capacity == cap
            counts["cut"] += 1

        new_dag, flips, _ = reversal_step(dag, rate)
        # (a) acyclicity after every reversal
        assert is_acyclic(new_dag)
        counts["acyclic"] += 1

        if flips:
            # (b) strict lexicographic decrease of the overload vector
            before = lex_min_overload(dag, rate)
            after = lex_min_overload(new_dag, rate)
            assert lex_compare(
                list(after.rates.values()), list(before.rates.values())
            ) == -1
            counts["lex"] += 1
            # (d) cut monotonicity: capacity strictly up, or equal with a
            # strictly larger source side
            c0 = smallest_min_cut(dag)
            c1 = smallest_min_cut(new_dag)
            assert c1.capacity > c0.capacity or (
                c1.capacity == c0.capacity
                and len(c1.source_side) > len(c0.source_side)
            )
            counts["monotone"] += 1

        # (e) witness edge whenever the orientation under-supports a feasible rate
        fk = max_flow(dag).value
        fmax = max_flow_undirected(net)
        if fk < fmax:
            probe = lex_min_overload(dag, fmax)
            witnesses = [
                (u, v)
                for u, v, _ in dag.directed_edges()
                if probe.rates[u] == 0 and probe.rates[v] > 0
            ]
            assert witnesses
            counts["witness"] += 1

    detail = (
        f"1000 instances, zero failures "
        f"(overloaded cuts={counts['cut']}, reversals checked={counts['lex']}, "
        f"witnesses={counts['witness']}), {time.time()-t0:.1f}s"
    )
    verdict(2, True, detail)


def test_criterion_3_convergence_and_bounds():
    """Termination value, iteration bounds, and the line-network worst case."""
    rng = random.Random(4242)
    t0 = time.time()
    checked = 0
    for _ in range(300):
        net = random_network(rng, n_min=4, n_max=9, cap_max=5, max_edges=16)
        dag = random_orientation(rng, net)
        rate = rng.randint(1, 14)
        fmax = max_flow_undirected(net)
        n = len(net.nodes)
        delta = exhaustive_delta(net)
        bound = math.ceil(Fraction(n) * Fraction(max(fmax, 1)) / delta)
        trace = converge(dag, rate, max_iters=bound + n, record_overload=False)
        final_cap = trace.entries[-1].max_flow_value
        assert final_cap >= min(rate, fmax)
        # the granularity bound covers reaching the final capacity; an
        # infeasible rate may add at most |N| trailing reversals after that
        reach = next(
            i for i, e in enumerate(trace.entries) if e.max_flow_value == final_cap
        )
        assert reach <= bound
        assert trace.iterations <= (bound if rate <= fmax else bound + n)
        checked += 1

    unit_checked = 0
    for _ in range(200):
        net = random_network(rng, n_min=4, n_max=10, cap_max=1)
        dag = random_orientation(rng, net)
        fmax = max_flow_undirected(net)
        trace = converge(dag, fmax, record_overload=False)
        assert trace.iterations <= len(net.nodes) * len(net.capacity)
        assert max_flow(trace.final).value == fmax
        unit_checked += 1

    line_iters = []
    for n in (4, 8, 16, 32):
        net = Network.build(range(n), [(i, i + 1, 1) for i in range(n - 1)], 0, n - 1)
        wrong = orient_explicit(net, [(i + 1, i) for i in range(n - 1)])
        trace = converge(wrong, 1, record_overload=False)
        assert trace.iterations == n - 1  # Theta(|N|) worst case
        line_iters.append(trace.iterations)

    verdict(3, True, f"{checked} bounded instances, {unit_checked} unit-capacity "
                     f"instances, line iterations {line_iters}, {time.time()-t0:.1f}s")


def test_criterion_4_random_graph_statistic():
    """1000 random-graph samples converge in <3 iterations on average."""
    t0 = time.time()
    stats = er_batch(1000, (10, 50), 0.5, (1, 10), seed=31)
    mean = stats["mean_iterations"]
    ok = mean < 3.0
    verdict(4, ok, f"mean iterations {mean:.3f} over 1000 samples "
                   f"(max {stats['max_iterations']}), {time.time()-t0:.1f}s")
    assert ok


def test_criterion_5_fixed_topology_backlog():
    """Fixed-topology sweep: halved backlog at rho=0.5, never above bp after
    the warm-up.

    Backlogs are compared per 20k-slot bucket from the second bucket on.  The
    worst-case start has max-flow 0; the oracle needs three reversals, which
    the scenario's periods place at slots 149, 199 and 249, and the ~3,560
    packets built up by then drain at 15 - 14.25 = 0.75 packets/slot at
    rho=0.95, until about slot 4,500.  The first bucket holds that whole
    transient (449 packets on average at rho=0.95) and is the warm-up; the
    claim under test is about long-run backlog, not about horizon length.

    The 20 (load, policy) cells run through ``sweep``'s two-worker pool on
    the scenario's only seed, 1; criterion 9 pins pooled output equal to
    serial output.
    """
    config = load_scenario("sixnode_fixed.scn")
    assert config.seeds == (1,)
    bucket = 20_000
    t0 = time.time()
    reports = {
        (r.rho, r.policy): r
        for r in sweep(config, ("bp", "lfbp"), jobs=2, horizon=200_000, bucket=bucket)
    }
    results = {}
    bad = {}
    for rho in config.load_factors:
        bp, lf = reports[rho, "bp"], reports[rho, "lfbp"]
        results[rho] = (bp.avg_backlog, lf.avg_backlog)
        assert len(bp.buckets) == len(lf.buckets) == 200_000 // bucket
        # A bucket is (slot, average backlog, delivered, reversals, live links).
        for (slot, bp_avg, *_), (_slot, lf_avg, *_) in zip(bp.buckets[1:], lf.buckets[1:]):
            if lf_avg > bp_avg:
                bad.setdefault(rho, []).append((slot, round(bp_avg, 1), round(lf_avg, 1)))
    ratio_half = results[0.5][1] / results[0.5][0]
    ok_half = ratio_half <= 0.5
    ok_all = not bad
    averages = ", ".join(f"{r}: {b:.1f}/{l:.1f}" for r, (b, l) in results.items())
    detail = (
        f"rho=0.5 ratio {ratio_half:.3f} (need <=0.5); "
        + ("lfbp<=bp in every bucket after the first at every rho" if ok_all
           else f"lfbp>bp in (slot, bp, lfbp) buckets {bad}")
        + f"; full-horizon bp/lfbp {averages}, {time.time()-t0:.1f}s"
    )
    verdict(5, ok_half and ok_all, detail)
    assert ok_half, f"rho=0.5 ratio {ratio_half:.3f} exceeds 0.5"
    assert ok_all, f"lfbp backlog above bp after the warm-up bucket: {bad}"


def test_criterion_6_dynamic_grid_backlog():
    """Failing-grid scenario: big backlog cut at rho=0.1, live fraction on target."""
    config = load_scenario("grid4x4.scn")
    t0 = time.time()
    bp = run(config, "bp", 200_000, rho=0.1, seed=1)
    lf = run(config, "lfbp", 200_000, rho=0.1, seed=1)
    ratio = lf.avg_backlog / bp.avg_backlog
    ok_ratio = ratio <= 0.40
    ok_live = (
        abs(bp.live_fraction - 10 / 11) < 0.02 and abs(lf.live_fraction - 10 / 11) < 0.02
    )
    verdict(6, ok_ratio and ok_live,
            f"backlog ratio {ratio:.3f} (need <=0.40), live fraction "
            f"bp={bp.live_fraction:.4f} lfbp={lf.live_fraction:.4f} "
            f"(target {10/11:.4f} +/-0.02), {time.time()-t0:.1f}s")
    assert ok_ratio and ok_live


def test_criterion_7_multicommodity_backlog():
    """Three-commodity grid: lfbp strictly below bp at every load.

    The 18 (load, policy) cells run through ``sweep``'s two-worker pool;
    criterion 9 pins pooled output equal to serial output."""
    config = replace(load_scenario("grid4x4_multi.scn"), seeds=(1,))
    t0 = time.time()
    backlog = {
        (r.rho, r.policy): r.avg_backlog
        for r in sweep(config, ("bp", "lfbp"), jobs=2, horizon=100_000)
    }
    rows = []
    ok = True
    for rho in config.load_factors:
        bp, lf = backlog[rho, "bp"], backlog[rho, "lfbp"]
        rows.append((rho, bp, lf))
        ok = ok and lf < bp
    detail = "; ".join(f"rho={r}: bp={b:.0f} lfbp={l:.0f}" for r, b, l in rows)
    verdict(7, ok, detail + f", {time.time()-t0:.1f}s")
    assert ok


def test_criterion_8_threshold_detection():
    """Across 100 seeds the marked set identifies the smallest min-cut."""
    config = load_scenario("sixnode_detect.scn")
    t0 = time.time()
    dag0 = initial_dag(config.network)
    cut = smallest_min_cut(dag0)
    params = config.lfbp_params
    window = params.period(0)
    full_detect = no_false_positive = 0
    trials = 100
    for seed in range(trials):
        state = SimState(
            config.network, list(config.commodities), "lfbp", 0.9, seed,
            initial_dags=[dag0],
        )
        state.epoch_left = window
        for _ in range(window):
            arrivals_step(state)
            bp_step(state)
            mark_step(state, params)
        marked = {state.node_of[i] for i in state.marks[0]}
        if cut.source_side <= marked:
            full_detect += 1
        if marked <= cut.source_side:
            no_false_positive += 1
    ok = full_detect >= 95 and no_false_positive >= 95
    verdict(8, ok, f"source side fully marked in {full_detect}/100, "
                   f"no sink-side marks in {no_false_positive}/100 "
                   f"(min-cut side {sorted(cut.source_side)}), {time.time()-t0:.1f}s")
    assert ok


def test_criterion_9_determinism(tmp_path, monkeypatch):
    """Byte-identical CSV reruns; identical arrival paths across policies."""
    t0 = time.time()
    config = replace(
        load_scenario("sixnode_fixed.scn"), load_factors=(0.5, 0.9), horizon=5_000
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep(config, ("bp", "lfbp"), a, jobs=1)
    sweep(config, ("bp", "lfbp"), b, jobs=2)
    identical = a.read_bytes() == b.read_bytes()

    bp_paths = run_recording_arrivals(monkeypatch, config, "bp", 5_000, rho=0.9, seed=12)
    lf_paths = run_recording_arrivals(monkeypatch, config, "lfbp", 5_000, rho=0.9, seed=12)
    paths_equal = bp_paths == lf_paths
    ok = identical and paths_equal
    verdict(9, ok, f"csv byte-identical={identical} (serial vs pooled), "
                   f"arrival paths identical={paths_equal}, {time.time()-t0:.1f}s")
    assert ok
