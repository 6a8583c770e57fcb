"""Slot engine: arrivals, backpressure transmissions, topology, metrics."""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import sim
from lfbp.cli import ScenarioConfig, load_scenario, sweep
from lfbp.flow import max_flow, max_flow_undirected
from lfbp.graph import Network, apply_topology_event, initial_dag, orient_explicit
from lfbp.protocol import LfbpParams, epoch_reversal, mark_step
from lfbp.sim import (
    MAX_POISSON_MEAN,
    SUMMARY_FIELDS,
    CommoditySpec,
    SimState,
    TopologyProcess,
    arrivals_step,
    bp_step,
    build_initial_dags,
    poisson_cdf,
    run,
    topology_step,
)

from conftest import (
    bundled_scenario_names,
    grid_network,
    random_orientation,
    reference_bp_step,
    reference_poisson_draws,
    reference_topology_step,
    run_recording_arrivals,
    scenario_to_dict,
)
from oracles import is_acyclic


def tiny_state(edges, directions, queues, *, ncom=1, commodities=None, policy="lfbp"):
    nodes = sorted({v for e in edges for v in e[:2]})
    if commodities is None:
        commodities = [CommoditySpec(0, nodes[0], nodes[-1], 0.0)]
    net = Network.build(nodes, edges, commodities[0].source, commodities[0].dest)
    dags = [orient_explicit(net, directions) for _ in commodities] if policy == "lfbp" else None
    state = SimState(net, commodities, policy, 1.0, 0, initial_dags=dags)
    for y, per_node in enumerate(queues):
        for node, amount in per_node.items():
            state.queues[y][state.idx[node]] = amount
    state.backlog_now = sum(sum(q) for q in state.queues)
    return state


def draws(state, slots) -> list[int]:
    """Commodity 0's arrivals in each of ``slots`` calls of ``arrivals_step``."""
    out = []
    for _ in range(slots):
        before = state.arrivals[0]
        arrivals_step(state)
        out.append(state.arrivals[0] - before)
    return out


# A path 0-1-2 and one commodity across it, for the engine's input checks.
PATH = Network.build([0, 1, 2], [(0, 1, 1), (1, 2, 1)], 0, 2)
ONE = CommoditySpec(0, 0, 2, 1.0)


def make_config(net, commodities, **kw):
    return ScenarioConfig(
        name=kw.get("name", "test"),
        network=net,
        commodities=tuple(commodities),
        initial_dag=kw.get("initial_dag", "by_id"),
        lfbp_params=kw.get("lfbp_params"),
        topology=kw.get("topology"),
        load_factors=kw.get("load_factors", (1.0,)),
        horizon=kw.get("horizon", 100),
        seeds=kw.get("seeds", (1,)),
        dummy_scale=kw.get("dummy_scale"),
    )


class TestArrivals:
    def test_zero_rate_never_arrives(self):
        state = tiny_state([(0, 1, 1)], [(0, 1)], [{}])
        for _ in range(200):
            arrivals_step(state)
        assert state.arrivals == [0]
        assert sum(map(sum, state.queues)) == 0

    def test_same_seed_same_path(self):
        net = Network.build([0, 1], [(0, 1, 3)], 0, 1)
        specs = [CommoditySpec(0, 0, 1, 2.5)]
        seqs = []
        for _ in range(2):
            state = SimState(net, specs, "bp", 1.0, 42)
            seqs.append(draws(state, 500))
        assert seqs[0] == seqs[1]
        assert any(seqs[0])

    def test_sample_mean_within_three_sigma(self):
        mean = 3.7
        n = 100_000
        net = Network.build([0, 1], [(0, 1, 1)], 0, 1)
        total = sum(draws(SimState(net, [CommoditySpec(0, 0, 1, mean)], "bp", 1.0, 7), n))
        sigma = math.sqrt(mean / n)
        assert abs(total / n - mean) < 3 * sigma

    def test_draw_consumes_one_uniform_even_at_zero_mean(self):
        net = Network.build([0, 1], [(0, 1, 1)], 0, 1)
        state = SimState(net, [CommoditySpec(0, 0, 1, 0.0)], "bp", 1.0, 5)
        reference = random.Random("5|arrivals|0")
        assert draws(state, 1) == [0]
        reference.random()
        assert state.arr_rngs[0].random() == reference.random()

    def test_zero_mean_table_is_one_entry(self):
        assert poisson_cdf(0.0) == [1.0]

    @pytest.mark.parametrize("mean", [0, 0.1, 1, 14.25, 50, 300, 700])
    def test_table_draw_equals_term_by_term_draw(self, mean):
        # 100,000 slots of the engine's own draw against the earlier loop on
        # the same arrival stream.
        net = Network.build([0, 1], [(0, 1, 1)], 0, 1)
        state = SimState(net, [CommoditySpec(0, 0, 1, mean)], "bp", 1.0, 3)
        reference = random.Random("3|arrivals|0")
        assert draws(state, 100_000) == reference_poisson_draws(reference, mean, 100_000)
        assert state.arr_rngs[0].getstate() == reference.getstate()

    @pytest.mark.parametrize("mean", [MAX_POISSON_MEAN + 1, 900.0, float("inf"), float("nan"), -1.0])
    def test_unrepresentable_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="Poisson mean"):
            poisson_cdf(mean)


class TestLoadValidation:
    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0, -0.5])
    def test_bad_load_factor_rejected_before_first_slot(self, rho):
        net = Network.build([0, 1], [(0, 1, 3)], 0, 1)
        with pytest.raises(ValueError, match="load factor must be finite and positive"):
            SimState(net, [CommoditySpec(0, 0, 1, 2.0)], "bp", rho, 0)

    def test_mean_above_limit_rejected_before_first_slot(self):
        # rate 15 at load 60 is a mean of 900: exp(-900) is 0.0
        config = make_config(Network.build([0, 1], [(0, 1, 15)], 0, 1), [CommoditySpec(0, 0, 1, 15.0)])
        with pytest.raises(ValueError, match="commodity 0: .* exceeds 700"):
            run(config, "bp", 10, rho=60.0)

    def test_mean_at_limit_runs(self):
        config = make_config(Network.build([0, 1], [(0, 1, 1000)], 0, 1), [CommoditySpec(0, 0, 1, 700.0)])
        report = run(config, "bp", 200, rho=1.0)
        assert abs(report.arrivals / 200 - 700) < 5 * math.sqrt(700 / 200)


class TestBpStep:
    def test_equal_queues_no_transmission(self):
        state = tiny_state([(0, 1, 5)], [(0, 1)], [{0: 4, 1: 4}])
        bp_step(state)
        assert state.queues[0][0] == 4 and state.queues[0][1] == 4

    def test_isolated_edge_sends_capacity(self):
        state = tiny_state(
            [(0, 1, 3), (1, 2, 100)], [(0, 1), (1, 2)], [{0: 10}],
            commodities=[CommoditySpec(0, 0, 2, 0.0)],
        )
        bp_step(state)
        assert state.queues[0][0] == 7  # min(cap 3, queue 10) left node 0

    def test_no_overdraw_across_edges(self):
        # two outgoing edges of capacity 3, both downstream empty, queue 2
        state = tiny_state(
            [(0, 1, 3), (0, 2, 3), (1, 3, 1), (2, 3, 1)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            [{0: 2}],
            commodities=[CommoditySpec(0, 0, 3, 0.0)],
        )
        bp_step(state)
        moved = state.queues[0][1] + state.queues[0][2]
        assert moved == 2
        assert state.queues[0][0] == 0

    def test_descending_differential_ties_go_low_id(self):
        # equal differentials: the lower neighbor ID is served first
        state = tiny_state(
            [(0, 1, 2), (0, 2, 2), (1, 3, 1), (2, 3, 1)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            [{0: 2}],
            commodities=[CommoditySpec(0, 0, 3, 0.0)],
        )
        bp_step(state)
        assert state.queues[0][1] == 2 and state.queues[0][2] == 0

    def test_delivery_vanishes_at_dest(self):
        state = tiny_state([(0, 1, 5)], [(0, 1)], [{0: 4}])
        bp_step(state)
        assert state.queues[0][1] == 0
        assert state.delivered == [4]
        assert state.backlog_now == 0

    def test_strict_inequality_needed(self):
        state = tiny_state([(0, 1, 5)], [(0, 1)], [{0: 1, 1: 1}])
        bp_step(state)
        assert state.delivered == [0]

    def test_multicommodity_one_winner_per_edge(self):
        specs = [CommoditySpec(0, 0, 1, 0.0), CommoditySpec(1, 1, 0, 0.0)]
        net = Network.build([0, 1], [(0, 1, 5)], 0, 1)
        state = SimState(net, specs, "bp", 1.0, 0)
        state.queues[0][0] = 3  # commodity 0 wants 0->1 with diff 3
        state.queues[1][1] = 7  # commodity 1 wants 1->0 with diff 7
        state.backlog_now = 10
        bp_step(state)
        # only the larger differential transmits on the shared link
        assert state.delivered == [0, 5]
        assert state.queues[0][0] == 3

    @pytest.mark.parametrize(
        "ends, start",
        [
            (((0, 1), (1, 0)), ({0: 3}, {1: 3})),
            (((0, 1), (0, 1)), ({0: 3}, {0: 3})),
            (((1, 0), (0, 1)), ({1: 3}, {0: 3})),
        ],
        ids=["opposite-directions", "same-direction", "reverse-ties-forward"],
    )
    def test_two_commodity_tie_goes_to_commodity_0(self, ends, start):
        # Equal differentials on the one link (0, 1): commodity 0 wins,
        # whichever direction either commodity wants.
        specs = [CommoditySpec(y, src, dst, 0.0) for y, (src, dst) in enumerate(ends)]
        state = SimState(Network.build([0, 1], [(0, 1, 5)], 0, 1), specs, "bp", 1.0, 0)
        for queue, per_node in zip(state.queues, start):
            for node, amount in per_node.items():
                queue[node] = amount
        state.backlog_now = 6
        bp_step(state)
        assert state.delivered == [3, 0]
        assert sum(state.queues[1]) == 3 and state.backlog_now == 3

    def test_destination_tail_keeps_what_it_does_not_send(self):
        # Hand-built: the destination (node 1) holds packets and, under bp,
        # is itself a tail toward node 2 while node 0 delivers into it.
        net = Network.build([0, 1, 2], [(0, 1, 2), (1, 2, 2)], 0, 1)
        states = [SimState(net, [CommoditySpec(0, 0, 1, 0.0)], "bp", 1.0, 0) for _ in range(2)]
        for state in states:
            state.queues[0][:] = [6, 3, 0]
            state.backlog_now = 9
        state, reference = states
        bp_step(state)
        reference_bp_step(reference)
        assert state.queues == reference.queues == [[4, 1, 2]]
        assert state.delivered == reference.delivered == [2]
        assert state.backlog_now == reference.backlog_now == 7

    def test_bidirected_bp_policy_uses_both_directions(self):
        net = Network.build([0, 1, 2], [(0, 1, 2), (1, 2, 2)], 0, 2)
        specs = [CommoditySpec(0, 0, 2, 0.0)]
        state = SimState(net, specs, "bp", 1.0, 0)
        state.queues[0][1] = 6  # middle node holds everything
        state.backlog_now = 6
        bp_step(state)
        # flows both toward dest and back toward the source (loop-prone)
        assert state.queues[0][0] == 2
        assert state.delivered == [2]


def twin_states(seed, ncom, policy, qmax):
    """Two identical random engine states: 3-7 nodes, zero-capacity and dead
    links, ``ncom`` commodities, queues drawn from ``[0, qmax]``."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    edges = [
        (i, j, rng.choice([0, 1, 2, 3, 5, 8]))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.6
    ] or [(0, 1, 1)]
    commodities = [CommoditySpec(y, *rng.sample(range(n), 2), 0.0) for y in range(ncom)]
    net = Network.build(range(n), edges, commodities[0].source, commodities[0].dest)
    dags = [random_orientation(rng, net) for _ in commodities]
    for edge in sorted(net.capacity):
        if rng.random() < 0.25:
            dags = [apply_topology_event(dag, "remove", edge) for dag in dags]
    queues = [[rng.randint(0, qmax) for _ in range(n)] for _ in commodities]
    states = []
    for _ in range(2):
        state = SimState(net, commodities, policy, 1.0, 0, initial_dags=dags)
        for queue, start in zip(state.queues, queues):
            queue[:] = start
        state.backlog_now = sum(map(sum, queues))
        states.append(state)
    return states


def has_contended_tail(state):
    """Whether some (tail, commodity) pair has winners whose capacities
    overdraw its backlog (the sorted case of ``bp_step``).  The plan holds a
    capacity per (arc, commodity): edge ``e`` is arc ``2e`` from ``a`` to
    ``b`` and ``2e + 1`` back, and commodity ``y`` of arc ``k`` is entry
    ``k * ncom + y``.  Each link goes to the largest positive differential,
    the lower commodity on a tie."""
    q, caps, ncom = state.queues, state.plans, len(state.queues)
    wins = [[0] * state.n for _ in q]
    for e, (a, b) in enumerate(state.edge_nodes):
        best, winner = 0, None
        for y in range(ncom):
            for k, u, v in ((2 * e, a, b), (2 * e + 1, b, a)):
                if caps[k * ncom + y] and q[y][u] - q[y][v] > best:
                    best, winner = q[y][u] - q[y][v], (y, u, caps[k * ncom + y])
        if winner:
            y, u, cap = winner
            wins[y][u] += cap
    return any(won > qu > 0 for won_y, q_y in zip(wins, q) for won, qu in zip(won_y, q_y))


class TestBpStepAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ncom=st.integers(1, 3),
        policy=st.sampled_from(["bp", "lfbp"]),
        qmax=st.sampled_from([2, 6, 40]),
    )
    def test_one_step_matches_reference(self, seed, ncom, policy, qmax):
        state, reference = twin_states(seed, ncom, policy, qmax)
        bp_step(state)
        reference_bp_step(reference)
        assert state.queues == reference.queues
        assert state.delivered == reference.delivered
        assert state.backlog_now == reference.backlog_now

    @pytest.mark.parametrize("qmax", [2, 40])
    def test_generator_reaches_both_tail_cases(self, qmax):
        # Small queues leave tails whose winning capacities overdraw the
        # backlog (the sorted case); large ones mostly do not.
        contended = sum(has_contended_tail(twin_states(seed, 1, "bp", qmax)[0]) for seed in range(200))
        assert (contended > 100) if qmax == 2 else (contended < 50)


class TestForwardingKernel:
    """One commodity is forwarded by a kernel compiled per network structure
    and destination; capacities, live links and orientation are its data."""

    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    def test_source_holds_no_capacity(self, policy):
        net = Network.build([0, 1, 2], [(0, 1, 987654321), (1, 2, 987654321)], 0, 2)
        specs = [CommoditySpec(0, 0, 2, 0.0), CommoditySpec(1, 2, 0, 0.0), CommoditySpec(2, 1, 2, 0.0)]
        for ncom in (1, 3):
            dags = [initial_dag(net)] * ncom if policy == "lfbp" else None
            state = SimState(net, specs[:ncom], policy, 1.0, 0, initial_dags=dags)
            assert "987654321" not in sim._kernel_source(state.n, tuple(state.dst_idx), state.edge_nodes)
            assert 987654321 in state.plans
            state.queues[0][:] = [5, 0, 0]
            state.backlog_now = 5
            bp_step(state)
            assert state.queues[0] == [0, 5, 0]

    def test_sweep_compiles_one_kernel(self):
        # Every cell of both policies shares the network and destinations.
        for name in ("sixnode_fixed.scn", "grid4x4_multi.scn"):
            config = replace(load_scenario(name), load_factors=tuple(k / 10 for k in range(1, 11)))
            sim._kernel.cache_clear()
            reports = sweep(config, ("bp", "lfbp"), horizon=100)
            assert len(reports) == 20 * len(config.seeds)
            assert sim._kernel.cache_info().misses == 1, name

    @pytest.mark.parametrize("ncom", [1, 3])
    def test_high_degree_sums_stay_short(self, ncom):
        # CPython's compiler recurses once per term of a + chain, and fails
        # near 3,000 terms; the hub of this star has 5,000 arcs.
        edges = tuple((0, leaf) for leaf in range(1, 5001))
        lines = sim._kernel_source(5001, (2, 4, 6)[:ncom], edges).splitlines()
        assert any(line.lstrip().startswith("t += ") for line in lines)
        assert max(line.count(" + ") for line in lines) <= 255

    def test_high_degree_star_runs(self, tmp_path):
        # One commodity through the hub of a 5,001-node star, end to end.
        doc = scenario_to_dict(load_scenario("sixnode_fixed.scn"))
        doc.update(
            name="star",
            nodes=list(range(5001)),
            edges=[[0, leaf, 1] for leaf in range(1, 5001)],
            commodities=[{"id": 0, "source": 1, "dest": 2, "rate": 0.5, "dummy_packets": 0}],
            initial_dag="by_id",
        )
        path = tmp_path / "star.scn"
        path.write_text(json.dumps(doc))
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "lfbp", "run", "--scenario", str(path), "--policy", "bp"]
            + ["--horizon", "10", "--out", ""],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith("star,bp,0.5,1,10,")


def lockstep_with_churn(commodities, policy, slots, topology=TopologyProcess(0.05, 0.3)):
    """Run two identical states through ``slots`` slots of arrivals,
    forwarding, marking, reversals and link churn on a 4x4 grid: one stepped
    by ``bp_step`` and ``topology_step``, one by ``reference_bp_step`` and
    ``reference_topology_step``.  Every slot, both must agree on queues,
    deliveries, backlog, live mask and the topology stream's position.
    Returns the engine state and how many slots began with a contended tail."""
    net = grid_network(4, 4, 6)
    dags = [initial_dag(net) for _ in commodities] if policy == "lfbp" else None
    params = LfbpParams(thresholds=(50,))
    states = [SimState(net, commodities, policy, 1.0, 3, topology=topology, initial_dags=dags) for _ in range(2)]
    for state in states:
        state.epoch_left = params.period(0)
    contended = 0
    steps = ((bp_step, topology_step), (reference_bp_step, reference_topology_step))
    for t in range(slots):
        for state, (step, churn) in zip(states, steps):
            arrivals_step(state)
            if step is bp_step:
                contended += has_contended_tail(state)
            step(state)
            if policy == "lfbp":
                mark_step(state, params)
                state.epoch_left -= 1
                if state.epoch_left <= 0:
                    epoch_reversal(state, params)
            churn(state)
            state.t = t + 1
        state, reference = states
        assert state.queues == reference.queues, f"slot {t + 1}"
        assert state.delivered == reference.delivered
        assert state.backlog_now == reference.backlog_now
        assert state.live_mask == reference.live_mask
        assert state.topo_rng.getstate() == reference.topo_rng.getstate()
    return state, contended


class TestLockstepWithChurn:
    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    def test_several_commodities_match_reference_every_slot(self, policy):
        commodities = [CommoditySpec(0, 1, 16, 3.6), CommoditySpec(1, 4, 13, 3.5), CommoditySpec(2, 5, 8, 4.9)]
        # Some slots start with a (tail, commodity) pair whose winners
        # overdraw its backlog (the sorted case).
        state, contended = lockstep_with_churn(commodities, policy, 2_000)
        assert contended >= 500
        assert state.topo_events >= 20
        assert policy == "bp" or state.reversal_events >= 1

    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    def test_one_commodity_matches_reference_every_slot(self, policy):
        # The source is the by-ID orientation's sink, so lfbp must reverse,
        # and the rate keeps queues short enough that most slots start with
        # a tail whose winners overdraw its backlog (the sorted case).
        state, contended = lockstep_with_churn([CommoditySpec(0, 16, 1, 6.0)], policy, 2_000)
        assert contended >= 500
        assert state.topo_events >= 20
        assert policy == "bp" or state.reversal_events >= 1

    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    @pytest.mark.parametrize(
        "fail,recover,events",
        [(0.5, 0.5, None), (0.75, 0.9999, None), (1.0, 0.0, 24), (0.0, 1.0, 0)],
    )
    def test_extreme_probabilities_match_reference_every_slot(self, fail, recover, events, policy):
        # Probabilities at and above one half: a lane's floor reaches 2**16,
        # and certain or impossible changes must still draw their words.
        commodities = [CommoditySpec(0, 1, 16, 3.6), CommoditySpec(1, 4, 13, 3.5)]
        state, _ = lockstep_with_churn(commodities, policy, 300, TopologyProcess(fail, recover))
        if events is None:
            assert state.topo_events >= 1_000
        else:
            assert state.topo_events == events


class TestTopologyDraw:
    """``topology_step`` reads edge ``i``'s uniform from words ``2i`` and
    ``2i + 1`` of one ``getrandbits(64 * m)`` and compares it with an
    integer bound; that must be ``random() < p`` on the same stream."""

    PROBS = [0.0, 2**-53, 1.5 * 2**-37, 1e-4, 0.3, 0.5, 0.5000001, 0.75, 0.9999, 1 - 2**-53, 1.0]

    @pytest.mark.parametrize("m", [0, 1, 24, 40])
    @pytest.mark.parametrize("seed", [0, 1, 22, "grid|topology"])
    def test_word_block_decisions_equal_random_calls(self, seed, m):
        rng, twin = random.Random(seed), random.Random(seed)
        probs = [self.PROBS[(i + m) % len(self.PROBS)] for i in range(m)]
        bits = rng.getrandbits(64 * m)
        lanes = [(bits >> 64 * i) & (2**64 - 1) for i in range(m)]
        draws = [((lane & 0xFFFFFFFF) >> 5) << 26 | (lane >> 32) >> 6 for lane in lanes]
        uniforms = [twin.random() for _ in range(m)]
        assert draws == [int(u * 2**53) for u in uniforms]
        assert [n < sim._draw_bound(p) for n, p in zip(draws, probs)] == [u < p for u, p in zip(uniforms, probs)]
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("p", PROBS)
    def test_bound_is_exact(self, p):
        # The bound T is the least 53-bit draw that does not fire.
        bound = sim._draw_bound(p)
        assert 0 <= bound <= 2**53
        assert bound == 0 or (bound - 1) / 2**53 < p
        assert bound == 2**53 or not bound / 2**53 < p


class TestTopology:
    @pytest.mark.parametrize(
        "name,topology,slots",
        [("grid4x4.scn", None, 20_000), ("grid4x4_multi.scn", TopologyProcess(0.05, 0.3), 500)],
    )
    def test_every_event_calls_apply_topology_event_once_per_commodity(self, name, topology, slots, monkeypatch):
        # The benchmark counts these calls by patching sim.apply_topology_event.
        calls = []

        def counted(dag, action, edge):
            calls.append(action)
            return apply_topology_event(dag, action, edge)

        monkeypatch.setattr(sim, "apply_topology_event", counted)
        config = load_scenario(name)
        config = config if topology is None else replace(config, topology=topology)
        report = run(config, "lfbp", slots, rho=0.6, seed=1)
        assert report.topo_events >= 10
        assert len(calls) == report.topo_events * len(config.commodities)

    def test_zero_probabilities_keep_topology(self):
        net = grid_network(3, 3, 2)
        state = SimState(
            net,
            [CommoditySpec(0, 1, 9, 1.0)],
            "bp",
            1.0,
            3,
            topology=TopologyProcess(0.0, 0.0),
        )
        before = list(state.live_mask)
        for _ in range(200):
            topology_step(state)
        assert state.live_mask == before and state.topo_events == 0

    def test_all_edges_dead_blocks_bp(self):
        net = grid_network(3, 3, 2)
        dag = initial_dag(net)
        from lfbp.graph import apply_topology_event

        for edge in sorted(net.capacity):
            dag = apply_topology_event(dag, "remove", edge)
        state = SimState(net, [CommoditySpec(0, 1, 9, 0.0)], "lfbp", 1.0, 0, initial_dags=[dag])
        state.queues[0][0] = 50
        state.backlog_now = 50
        bp_step(state)
        assert sum(map(sum, state.queues)) == 50 and state.delivered == [0]

    def test_live_fraction_tracks_stationary_ratio(self):
        net = grid_network(4, 4, 6)
        config = make_config(
            net,
            [CommoditySpec(0, 1, 16, 1.0)],
            topology=TopologyProcess(1e-3, 1e-2),
            horizon=50_000,
        )
        report = run(config, "bp", seed=11)
        assert abs(report.live_fraction - 10 / 11) < 0.02

    def test_events_preserve_per_commodity_acyclicity(self):
        net = grid_network(3, 3, 2)
        config = make_config(
            net,
            [CommoditySpec(0, 1, 9, 2.0), CommoditySpec(1, 3, 7, 2.0)],
            topology=TopologyProcess(0.05, 0.2),
            horizon=2_000,
        )
        report = run(config, "lfbp", seed=5)
        assert report.topo_events > 0
        for dag in report.final_dags:
            assert is_acyclic(dag)


class TestRun:
    def test_horizon_zero_reports_dummies(self):
        net = Network.build([0, 1], [(0, 1, 3)], 0, 1)
        config = make_config(net, [CommoditySpec(0, 0, 1, 2.0, dummy_packets=9)], horizon=0)
        report = run(config, "lfbp")
        assert report.final_backlog == 9
        assert report.avg_backlog == 0.0
        assert report.delivered == 0

    def test_zero_rate_zero_backlog(self):
        net = Network.build([0, 1], [(0, 1, 3)], 0, 1)
        config = make_config(net, [CommoditySpec(0, 0, 1, 0.0)], horizon=500)
        report = run(config, "bp")
        assert report.avg_backlog == 0.0 and report.arrivals == 0

    def test_exact_packet_conservation(self):
        net = grid_network(3, 3, 3)
        config = make_config(
            net,
            [CommoditySpec(0, 1, 9, 2.0, dummy_packets=17)],
            horizon=3_000,
        )
        for policy in ("bp", "lfbp"):
            report = run(config, policy, seed=9)
            dummies = 17 if policy == "lfbp" else 17
            assert report.arrivals + dummies == report.delivered + report.final_backlog

    def test_destination_queue_always_zero(self):
        net = grid_network(3, 3, 3)
        state = SimState(net, [CommoditySpec(0, 1, 9, 3.0)], "bp", 1.0, 2)
        for _ in range(500):
            arrivals_step(state)
            bp_step(state)
            assert state.queues[0][state.dst_idx[0]] == 0

    def test_per_slot_conservation_identity(self):
        net = grid_network(3, 3, 3)
        state = SimState(net, [CommoditySpec(0, 1, 9, 2.5)], "bp", 1.0, 13)
        for _ in range(400):
            arrivals_step(state)
            bp_step(state)
            backlog = sum(map(sum, state.queues))
            assert backlog == state.arrivals[0] - state.delivered[0]
            assert backlog == state.backlog_now

    def test_determinism_full_reports(self):
        net = grid_network(3, 3, 3)
        config = make_config(
            net,
            [CommoditySpec(0, 1, 9, 2.0)],
            topology=TopologyProcess(1e-3, 1e-2),
            horizon=4_000,
        )
        a = run(config, "lfbp", seed=4)
        b = run(config, "lfbp", seed=4)
        assert a.to_row() == b.to_row()

    def test_summary_row_follows_summary_fields(self):
        config = make_config(grid_network(3, 3, 3), [CommoditySpec(0, 1, 9, 2.0)], horizon=300)
        report = run(config, "lfbp", rho=0.5, seed=2)
        row = report.to_row()
        assert list(row) == SUMMARY_FIELDS
        for name in ("rho", "avg_backlog", "avg_backlog_net", "live_fraction"):
            assert row[name] == repr(getattr(report, name))
        assert row["arrivals"] == report.arrivals and type(row["arrivals"]) is int

    def test_policies_share_arrival_paths(self, monkeypatch):
        net = grid_network(3, 3, 3)
        config = make_config(net, [CommoditySpec(0, 1, 9, 2.0)], horizon=2_000)
        a = run_recording_arrivals(monkeypatch, config, "bp", seed=21)
        b = run_recording_arrivals(monkeypatch, config, "lfbp", seed=21)
        assert a == b

    def test_stability_smoke_on_supporting_dag(self):
        # a supported rate keeps the time-average backlog flat, not growing
        net = grid_network(3, 3, 4)
        config = make_config(
            net,
            [CommoditySpec(0, 1, 9, 4.0)],  # undirected max-flow is 8
            initial_dag="optimal",
            horizon=40_000,
            lfbp_params=None,
        )
        report = run(config, "lfbp", seed=6, bucket=10_000)
        # A bucket is (slot, average backlog, delivered, reversals, live links).
        early = report.buckets[1][1]
        late = report.buckets[-1][1]
        assert late < 3 * max(early, 5.0)

    def test_optimal_start_is_built_per_commodity(self):
        # commodity 9 -> 1 on the orientation built for 1 -> 9 would start
        # at max-flow 0
        net = grid_network(3, 3, 4)
        specs = [CommoditySpec(0, 1, 9, 2.0), CommoditySpec(1, 9, 1, 2.0)]
        config = make_config(net, specs, initial_dag="optimal")
        for dag, c in zip(build_initial_dags(config, "lfbp"), specs):
            assert (dag.net.source, dag.net.dest) == (c.source, c.dest)
            assert max_flow(dag).value == max_flow_undirected(dag.net) == 8

    def test_dummy_scale_applies_to_lfbp_only(self):
        net = Network.build([0, 1], [(0, 1, 30)], 0, 1)
        config = make_config(
            net, [CommoditySpec(0, 0, 1, 1.0)], dummy_scale=100, horizon=10
        )
        lf = run(config, "lfbp", rho=0.5)
        bp = run(config, "bp", rho=0.5)
        # floor(100 / 0.5) = 200 startup packets, drained at 30/slot
        assert lf.delivered >= 190
        assert bp.delivered <= lf.delivered - 150

    def test_bad_policy_rejected(self):
        net = Network.build([0, 1], [(0, 1, 1)], 0, 1)
        config = make_config(net, [CommoditySpec(0, 0, 1, 1.0)])
        with pytest.raises(ValueError, match="policy"):
            run(config, "qp")

    @pytest.mark.parametrize(
        ("attempt", "message"),
        [
            pytest.param(lambda: CommoditySpec(0, 1, 3, 1.0, -1), "commodity 0: negative dummy packet count", id="dummies"),
            pytest.param(
                lambda: SimState(PATH, [ONE], "lfbp", 1.0, 0),
                "lfbp policy requires per-commodity initial orientations",
                id="no-orientations",
            ),
            pytest.param(
                lambda: SimState(
                    PATH,
                    [ONE, replace(ONE, id=1)],
                    "lfbp",
                    1.0,
                    0,
                    initial_dags=[initial_dag(PATH), apply_topology_event(initial_dag(PATH), "remove", (0, 1))],
                ),
                "all commodity orientations must share one live mask",
                id="two-live-sets",
            ),
            pytest.param(
                lambda: run(make_config(PATH, [ONE], initial_dag="bogus"), "lfbp"),
                "unknown initial orientation mode 'bogus'",
                id="unknown-initial-dag",
            ),
        ],
    )
    def test_bad_engine_input_rejected(self, attempt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            attempt()

    def test_fractional_capacity_rejected_by_engine(self):
        from fractions import Fraction

        net = Network.build([0, 1], [(0, 1, Fraction(1, 2))], 0, 1)
        with pytest.raises(ValueError, match="integer capacities"):
            SimState(net, [CommoditySpec(0, 0, 1, 1.0)], "bp", 1.0, 0)


class TestRunMatchesSteps:
    """``run``'s slot loop draws, forwards and marks inline; stepping a
    ``SimState`` through the step functions in the same order must give the
    same run."""

    SLOTS, BUCKET = 3_000, 1_000

    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled_scenario_at_highest_load(self, name, policy):
        config = load_scenario(name)
        self.assert_run_matches_steps(config, policy, max(config.load_factors))

    @pytest.mark.parametrize("policy", ["bp", "lfbp"])
    def test_grid_with_frequent_link_events(self, policy):
        # The bundled grid sees a handful of events in these slots; here
        # links fail and recover about once a slot.
        config = replace(load_scenario("grid4x4.scn"), topology=TopologyProcess(0.05, 0.3))
        report = self.assert_run_matches_steps(config, policy, max(config.load_factors))
        assert report.topo_events >= 2_000

    @pytest.mark.parametrize("name", ["sixnode_fixed.scn", "grid4x4_multi.scn"])
    def test_threshold_changing_by_epoch(self, name):
        config = replace(load_scenario(name), lfbp_params=LfbpParams(thresholds=(30, 90, 45), periods=(150, 50)))
        self.assert_run_matches_steps(config, "lfbp", max(config.load_factors))

    def assert_run_matches_steps(self, config, policy, rho, seed=7):
        report = run(config, policy, self.SLOTS, rho=rho, seed=seed, bucket=self.BUCKET)

        params = config.lfbp_params or LfbpParams()
        extra = int(config.dummy_scale / rho) if config.dummy_scale else 0
        state = SimState(
            config.network,
            config.commodities,
            policy,
            rho,
            seed,
            topology=config.topology,
            initial_dags=build_initial_dags(config, policy),
            dummies=[c.dummy_packets + extra for c in config.commodities] if policy == "lfbp" else None,
        )
        state.epoch_left = params.period(0)
        backlogs, debts = [], []
        for t in range(self.SLOTS):
            arrivals_step(state)
            bp_step(state)
            if policy == "lfbp":
                mark_step(state, params)
                state.epoch_left -= 1
                if state.epoch_left <= 0:
                    epoch_reversal(state, params)
            topology_step(state)
            state.t = t + 1
            backlogs.append(state.backlog_now)
            debts.append(sum(max(0, d - got) for d, got in zip(state.dummies, state.delivered)))

        assert report.arrivals_by_commodity == tuple(state.arrivals)
        assert report.delivered_by_commodity == tuple(state.delivered)
        assert report.final_backlog == state.backlog_now == sum(map(sum, state.queues))
        assert report.avg_backlog == sum(backlogs) / self.SLOTS
        assert report.avg_backlog_net == (sum(backlogs) - sum(debts)) / self.SLOTS
        assert [avg for _slot, avg, *_counts in report.buckets] == [
            sum(backlogs[end - self.BUCKET : end]) / self.BUCKET
            for end in range(self.BUCKET, self.SLOTS + 1, self.BUCKET)
        ]
        assert (report.reversal_events, report.edges_reversed, report.topo_events) == (
            state.reversal_events,
            state.edges_reversed,
            state.topo_events,
        )
        assert report.reversal_log == state.reversal_log
        assert report.final_dags == (tuple(state.dags) if state.dags is not None else None)
        if policy == "lfbp":
            assert state.reversal_log, "no epoch marked a node, so marking went unchecked"
        return report


# sha256 of the summary, trace and reversal CSVs that ``cli.sweep`` writes for
# every load factor of each bundled scenario, seed 1, both policies, 5,000
# slots, bucket 500.  A change that moves a sample path must update these
# digests and say why.
GOLDEN_SHA256 = {
    "grid4x4.scn": (
        "07637a6e2d7d66f1f933dded00c66027635fbf452f3bbd52d094c74797b47c39",
        "7b0708eea7dfb16c9118597e7636875e3cf866dc05182163931d60350fe1c0d0",
        "638a1397290f9d9c9623155eed1dcd0afe3c558610bd34b792c09af0d7d0f84d",
    ),
    "grid4x4_multi.scn": (
        "869233758741eb0f8a27263d927c3ab7997cec5969214ba9fb8801e711d9721c",
        "c72545b3cb70f3deeba4d30b817966206935afd19147ff6938b034e7c703eb5e",
        "e264fb9cf8847ee675abd9bebab535acebd5b90358c9a3b660c6a1bfb65d6fbe",
    ),
    "sixnode_detect.scn": (
        "9fc0b0b1f0798fe19c5a565e44c638269345418cdaae195f756c359f3f4bb9fb",
        "6460039e993fe296a0b5142a9ab2acb56a29af400e02d561aa9b6e3c3a5ddccf",
        "a2efac103849dc31582466bf15e8ef2501e3f5e5b29d3334a33cbc03deba5bfd",
    ),
    "sixnode_fixed.scn": (
        "079e436a441eb9e2d7ecc76dd41f5488e18eed0ade0627ab188b72716dbd7b43",
        "ed815d2b6b7129e2da09f46b7c4a57d77f6e8c8759f81387844b9c45f0c25a13",
        "637bd270dd155af5db4785c800cc208bca9d3b28111dc83191d80e82387b2962",
    ),
}


class TestGoldenSamplePaths:
    def test_every_bundled_scenario_is_covered(self):
        assert sorted(GOLDEN_SHA256) == bundled_scenario_names()

    @pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
    def test_csv_digests(self, name, tmp_path):
        config = replace(load_scenario(name), seeds=(1,))
        out = tmp_path / "summary.csv"
        sweep(config, ("bp", "lfbp"), out, horizon=5_000, bucket=500)
        paths = (out, out.with_suffix(".trace.csv"), out.with_suffix(".reversals.csv"))
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
        assert digests == GOLDEN_SHA256[name]
