"""Threshold marking, epoch reversals, and full protocol runs."""
from __future__ import annotations

import math
from dataclasses import replace

import pytest

from lfbp.cli import load_scenario
from lfbp import sim
from lfbp.flow import max_flow, max_flow_undirected, smallest_min_cut
from lfbp.graph import Network, apply_topology_event, initial_dag, orient_explicit
from lfbp.protocol import LfbpParams, epoch_reversal, mark_step
from lfbp.reversal import converge, reversal_step, reverse_toward
from lfbp.sim import CommoditySpec, SimState, arrivals_step, bp_step, run

from conftest import direction, signature
from test_sim import make_config
from oracles import check_state_consistency, is_acyclic


def sixnode_net():
    return load_scenario("sixnode_fixed.scn").network


class TestParams:
    def test_sequences_repeat_last_value(self):
        p = LfbpParams(thresholds=(100, 60), periods=(150, 50))
        assert p.period(0) == 150
        assert p.period(1) == 50
        assert p.period(9) == 50
        # At epoch 7 ``mark_step`` holds queues to the last threshold, 60.
        net = Network.build([0, 1, 2], [(0, 1, 2), (1, 2, 2)], 0, 2)
        state = SimState(net, [CommoditySpec(0, 0, 2, 0.0)], "lfbp", 1.0, 0, initial_dags=[initial_dag(net)])
        state.epoch = 7
        state.queues[0][:2] = [61, 60]
        mark_step(state, p)
        assert state.marks[0] == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            LfbpParams(thresholds=())
        with pytest.raises(ValueError):
            LfbpParams(periods=(0,))
        with pytest.raises(ValueError):
            LfbpParams(thresholds=(-3,))


class TestMarking:
    def make_state(self, threshold=10):
        net = Network.build([0, 1, 2], [(0, 1, 2), (1, 2, 2)], 0, 2)
        params = LfbpParams(thresholds=(threshold,), periods=(5,))
        state = SimState(net, [CommoditySpec(0, 0, 2, 0.0)], "lfbp", 1.0, 0,
                         initial_dags=[initial_dag(net)])
        state.epoch_left = params.period(0)
        return state, params

    def test_below_threshold_no_marks(self):
        state, params = self.make_state()
        state.queues[0][0] = 10  # not strictly above
        mark_step(state, params)
        assert state.marks[0] == set()

    def test_spike_then_drain_keeps_mark(self):
        state, params = self.make_state()
        state.queues[0][0] = 11
        mark_step(state, params)
        state.queues[0][0] = 0
        mark_step(state, params)
        assert state.idx[0] in state.marks[0]

    def test_epoch_clears_marks_and_advances(self):
        state, params = self.make_state()
        state.queues[0][0] = 11
        mark_step(state, params)
        epoch_reversal(state, params)
        assert state.marks[0] == set()
        assert state.epoch == 1
        assert state.epoch_left == params.period(1)

    def test_no_marks_epoch_still_advances(self):
        state, params = self.make_state()
        before = [signature(d) for d in state.dags]
        epoch_reversal(state, params)
        assert state.epoch == 1
        assert [signature(d) for d in state.dags] == before
        assert state.edges_reversed == 0


class TestEpochReversal:
    def test_exact_marks_match_oracle_reversal(self):
        # marks equal to the smallest min-cut source side must perform exactly
        # the reversal the oracle-driven step performs
        net = sixnode_net()
        dag0 = initial_dag(net)
        rate = 13.5
        cut = smallest_min_cut(dag0)
        assert cut.capacity < rate

        oracle_dag, flips, _ = reversal_step(dag0, rate)
        state = SimState(net, [CommoditySpec(0, 0, 5, 15.0)], "lfbp", 0.9, 0,
                         initial_dags=[dag0])
        state.marks[0].update(i for i, node in enumerate(state.node_of) if node in cut.source_side)
        params = LfbpParams(thresholds=(60,), periods=(10,))
        epoch_reversal(state, params)
        assert signature(state.dags[0]) == signature(oracle_dag)
        assert state.edges_reversed == len(flips)

    def test_wrong_marks_never_break_acyclicity(self, rng):
        # graceful degradation: arbitrary bad marks keep every snapshot a DAG
        # and convergence remains possible afterwards
        net = sixnode_net()
        dag = initial_dag(net)
        for _ in range(30):
            marked = {n for n in net.nodes if rng.random() < 0.4 and n != net.dest}
            dag, _ = reverse_toward(dag, marked)
            assert is_acyclic(dag)
            check_state_consistency(dag)
        trace = converge(dag, 15, record_overload=False)
        assert max_flow(trace.final).value == 15


class TestReversalGate:
    def test_source_free_marks_on_converged_orientation_flip_nothing(self):
        # a queue excursion at node 2 alone used to flip 0->2 (capacity 15)
        # and cut the orientation's max-flow from 15 to 5
        config = load_scenario("sixnode_fixed.scn")
        dag = converge(orient_explicit(config.network, config.initial_dag), 15).final
        assert max_flow(dag).value == 15
        state = SimState(config.network, list(config.commodities), "lfbp", 0.95, 0,
                         initial_dags=[dag])
        state.marks[0].add(state.idx[2])
        epoch_reversal(state, LfbpParams(thresholds=(60,), periods=(50,)))
        assert state.dags[0] is dag
        assert max_flow(state.dags[0]).value == 15
        assert state.edges_reversed == 0 and state.reversal_events == 0
        assert state.reversal_log == [(0, 0, 0, (2,))]

    def test_dead_end_component_without_source_is_reversed(self):
        # {2, 4} has no way out, so it reverses even without the source;
        # the marked node 1 has an outgoing link and is held back
        net = Network.build(
            range(5), [(0, 1, 3), (1, 3, 3), (0, 2, 2), (2, 4, 2)], 0, 3
        )
        dag = orient_explicit(net, [(0, 1), (1, 3), (0, 2), (2, 4)])
        state = SimState(net, [CommoditySpec(0, 0, 3, 3.0)], "lfbp", 1.0, 0,
                         initial_dags=[dag])
        for node in (1, 2, 4):
            state.marks[0].add(state.idx[node])
        epoch_reversal(state, LfbpParams(thresholds=(60,), periods=(50,)))
        out = state.dags[0]
        assert direction(out, (0, 2)) == (2, 0)
        assert direction(out, (0, 1)) == (0, 1)
        assert max_flow(out).value == max_flow(dag).value == 3
        assert is_acyclic(out)
        assert state.reversal_log == [(0, 0, 1, (1, 2, 4))]


class TestLfbpRun:
    def test_infinite_threshold_means_no_reversals(self):
        config = replace(
            load_scenario("sixnode_fixed.scn"),
            lfbp_params=LfbpParams(thresholds=(10**12,), periods=(50,)),
        )
        report = run(config, "lfbp", 5_000, rho=0.5, seed=1)
        assert report.edges_reversed == 0
        assert signature(report.final_dags[0]) == \
            signature(orient_explicit(config.network, config.initial_dag))

    def test_converges_past_initial_bottleneck(self):
        # static topology, rate above the initial orientation's max-flow
        net = sixnode_net()
        config = make_config(
            net,
            [CommoditySpec(0, 0, 5, 13.0)],
            initial_dag="by_id",  # supports 10 < 13
            lfbp_params=LfbpParams(thresholds=(60,), periods=(150, 50)),
            horizon=5_000,
        )
        report = run(config, "lfbp", seed=2)
        assert max_flow(report.final_dags[0]).value >= 13

    def test_worst_case_start_reaches_optimal(self):
        config = load_scenario("sixnode_fixed.scn")
        report = run(config, "lfbp", 20_000, rho=0.9, seed=1)
        assert max_flow(report.final_dags[0]).value == 15
        assert report.edges_reversed >= 6

    def test_multicommodity_dags_independent(self):
        config = load_scenario("grid4x4_multi.scn")
        report = run(config, "lfbp", 3_000, rho=0.5, seed=1)
        assert len(report.final_dags) == 3
        for dag in report.final_dags:
            assert is_acyclic(dag)

    def test_reversal_log_records_marks(self):
        config = load_scenario("sixnode_detect.scn")
        report = run(config, "lfbp", 400, rho=0.9, seed=1)
        assert report.reversal_log
        slot, commodity, flips, marked = report.reversal_log[0]
        assert slot == 150 - 1  # first epoch boundary
        assert commodity == 0
        assert marked  # detection fired

    def test_lfbp_beats_bp_delivery_on_under_supporting_start(self):
        config = load_scenario("sixnode_fixed.scn")
        bp = run(config, "bp", 30_000, rho=0.6, seed=3)
        lf = run(config, "lfbp", 30_000, rho=0.6, seed=3)
        assert lf.delivered >= bp.delivered

    @pytest.mark.parametrize(
        "name,rho",
        [
            ("sixnode_fixed.scn", 0.5),
            ("sixnode_detect.scn", 0.9),
            ("grid4x4.scn", 0.3),
            ("grid4x4_multi.scn", 0.4),
        ],
    )
    def test_paired_delivery_on_every_bundled_scenario(self, name, rho):
        # identical arrival paths; every bundled start under-supports its rate,
        # so the reversing policy must deliver at least as much (net of any
        # startup packets)
        config = load_scenario(name)
        bp = run(config, "bp", 25_000, rho=rho, seed=7)
        lf = run(config, "lfbp", 25_000, rho=rho, seed=7)
        assert lf.delivered_net >= bp.delivered_net

    def test_lfbp_params_override(self):
        config = load_scenario("sixnode_fixed.scn")
        config = replace(config, lfbp_params=LfbpParams(thresholds=(10**12,), periods=(60,)))
        report = run(config, "lfbp", 2_000, rho=0.5, seed=1)
        assert report.edges_reversed == 0


class TestNodeOrderInSlotEngine:
    """Long lfbp runs with flipping reversals, and on grid4x4 with links
    failing and coming back: every orientation stays a node order, ranks
    0..n-1 that every live link climbs."""

    @pytest.mark.parametrize("name,rho", [("grid4x4.scn", 0.6), ("grid4x4_multi.scn", 0.9)])
    def test_states_stay_a_consistent_permutation(self, name, rho, monkeypatch):
        actions = []

        def counted(dag, action, edge):
            actions.append(action)
            return apply_topology_event(dag, action, edge)

        monkeypatch.setattr(sim, "apply_topology_event", counted)
        config = load_scenario(name)
        report = run(config, "lfbp", 20_000, rho=rho, seed=1)
        assert report.reversal_events >= 1
        if config.topology is not None:
            assert "add" in actions
        n = len(config.network.nodes)
        for dag in report.final_dags:
            assert sorted(dag.states.values()) == list(range(n))
            check_state_consistency(dag)
