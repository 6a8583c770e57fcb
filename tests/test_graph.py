"""Network construction, orientations, topology events, and state upkeep."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import (
    DagOrientation,
    InvariantViolation,
    Network,
    apply_topology_event,
    check_state_consistency,
    erdos_renyi_network,
    grid_network,
    initial_dag,
    orient_by_ranking,
    orient_explicit,
    rescale_states,
    update_states_after_reversal,
)
from lfbp.reversal import converge

import oracles
from conftest import random_network, random_orientation
from oracles import is_acyclic


def triangle():
    return Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1), (1, 3, 1)], 1, 3)


class TestNetwork:
    def test_build_validates(self):
        net = triangle()
        assert net.nodes == frozenset({1, 2, 3})
        assert len(net.capacity) == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Network.build([1, 2], [(1, 1, 1)], 1, 2)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network.build([1, 2], [(1, 2, 1), (2, 1, 3)], 1, 2)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="negative capacity"):
            Network.build([1, 2], [(1, 2, -1)], 1, 2)

    def test_rejects_same_source_dest(self):
        with pytest.raises(ValueError, match="must differ"):
            Network.build([1, 2], [(1, 2, 1)], 1, 1)

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            Network.build([1, 2], [(1, 5, 1)], 1, 2)

    def test_fraction_capacities(self):
        net = Network.build([1, 2], [(1, 2, Fraction(3, 4))], 1, 2)
        assert net.capacity[(1, 2)] == Fraction(3, 4)


class TestInitialDag:
    def test_triangle_all_directions_by_id(self):
        dag = initial_dag(triangle())
        assert dag.direction((1, 2)) == (1, 2)
        assert dag.direction((2, 3)) == (2, 3)
        assert dag.direction((1, 3)) == (1, 3)
        assert dag.version == 0
        assert dag.states == {1: 1, 2: 2, 3: 3}

    def test_single_edge(self):
        net = Network.build([5, 2], [(5, 2, 1)], 2, 5)
        dag = initial_dag(net)
        assert dag.direction((2, 5)) == (2, 5)

    def test_grid_points_right_and_down(self):
        net = grid_network(4, 4, 6)
        assert len(net.nodes) == 16 and len(net.capacity) == 24
        dag = initial_dag(net)
        for (i, j), head in dag.heads.items():
            assert head == max(i, j)
            assert j - i in (1, 4)  # down within a column, or right one column

    def test_deterministic(self):
        net = triangle()
        a, b = initial_dag(net), initial_dag(net)
        assert a.heads == b.heads and a.states == b.states

    def test_acyclic_and_state_consistent(self, rng):
        for _ in range(50):
            dag = random_orientation(rng, random_network(rng, n_max=8))
            assert is_acyclic(dag)
            check_state_consistency(dag)


class TestIsAcyclic:
    def test_direct_three_cycle_detected(self):
        net = triangle()
        # construct directly, bypassing the orienting constructors
        cyclic = DagOrientation(
            net=net,
            heads={(1, 2): 2, (2, 3): 3, (1, 3): 1},
            states={1: 1, 2: 2, 3: 3},
        )
        assert not is_acyclic(cyclic)

    def test_initial_dag_always_acyclic(self, rng):
        for _ in range(25):
            assert is_acyclic(initial_dag(random_network(rng, n_max=9)))


class TestTopologyEvents:
    def test_add_orients_by_state(self):
        net = Network.build([1, 2], [(1, 2, 1)], 1, 2)
        dag = initial_dag(net)
        dag = apply_topology_event(dag, "remove", (1, 2))
        assert not dag.is_live((1, 2))
        back = apply_topology_event(dag, "add", (1, 2))
        assert back.direction((1, 2)) == (1, 2)

    def test_add_follows_states_not_ids(self):
        net = Network.build([1, 2], [(1, 2, 1)], 1, 2)
        dag = initial_dag(net)
        dag = apply_topology_event(dag, "remove", (1, 2))
        flipped = dag.states | {1: 10}
        dag = DagOrientation(net=net, heads=dict(dag.heads), states=flipped)
        assert apply_topology_event(dag, "add", (1, 2)).direction((1, 2)) == (2, 1)

    def test_remove_dead_edge_rejected(self):
        dag = initial_dag(triangle())
        dag = apply_topology_event(dag, "remove", (1, 2))
        with pytest.raises(ValueError, match="dead edge"):
            apply_topology_event(dag, "remove", (1, 2))

    def test_add_live_edge_rejected(self):
        dag = initial_dag(triangle())
        with pytest.raises(ValueError, match="live edge"):
            apply_topology_event(dag, "add", (1, 2))

    def test_random_event_sequence_stays_acyclic(self, rng):
        dag = initial_dag(grid_network(4, 4, 6))
        edges = sorted(dag.net.capacity)
        for _ in range(300):
            edge = edges[rng.randrange(len(edges))]
            action = "remove" if dag.is_live(edge) else "add"
            dag = apply_topology_event(dag, action, edge)
            assert is_acyclic(dag)
            check_state_consistency(dag)


class TestStateUpdates:
    def test_formula_direct_substitution(self):
        net = Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], 1, 3)
        dag = initial_dag(net)  # states 1, 2, 3
        out = update_states_after_reversal(dag, {1}, 1, 10)
        assert out.states == {1: -19, 2: 2, 3: 3}

    def test_empty_set_is_identity(self):
        dag = initial_dag(triangle())
        assert update_states_after_reversal(dag, set(), 3, 10).states == dag.states

    def test_doubling_keeps_overloaded_below_everyone(self):
        dag = initial_dag(triangle())
        for k in range(1, 8):
            dag = update_states_after_reversal(dag, {2}, k, dag.delta)
            assert dag.states[2] < min(dag.states[1], dag.states[3])


class TestRescale:
    def test_divides_and_preserves_order(self):
        net = Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], 1, 3)
        dag = initial_dag(net)
        dag = update_states_after_reversal(dag, {1}, 1, 10)  # -19, 2, 3
        out = rescale_states(dag, 10)
        assert out.states == {1: Fraction(-19, 10), 2: Fraction(1, 5), 3: Fraction(3, 10)}
        assert out.step == 0
        assert out.delta > max(out.states.values()) - min(out.states.values())

    def test_divisor_one_is_identity_on_states(self):
        dag = initial_dag(triangle())
        assert rescale_states(dag, 1).states == dag.states

    def test_nonpositive_divisor_rejected(self):
        dag = initial_dag(triangle())
        with pytest.raises(ValueError):
            rescale_states(dag, 0)

    def test_rescaling_never_changes_reversal_decisions(self, rng):
        # Paired convergence runs: aggressive rescaling vs none must flip the
        # same edges in the same order and land on the same orientation.
        for _ in range(20):
            net = random_network(rng, n_min=4, n_max=8, cap_max=5)
            dag = random_orientation(rng, net)
            rate = rng.randint(1, 10)
            a = converge(dag, rate, record_overload=False, rescale_every=1)
            b = converge(dag, rate, record_overload=False, rescale_every=0)
            assert [e.reversed_edges for e in a.entries] == [e.reversed_edges for e in b.entries]
            assert a.final.signature() == b.final.signature()

    def test_auto_rescale_keeps_states_small(self):
        # a long wrong-way line forces many reversals; periodic rescaling must
        # keep the state magnitudes tame while the unscaled run blows up
        n = 14
        net = Network.build(range(n), [(i, i + 1, 1) for i in range(n - 1)], 0, n - 1)
        wrong = orient_explicit(net, [(i + 1, i) for i in range(n - 1)])
        scaled = converge(wrong, 1, record_overload=False, rescale_every=3).final
        raw = converge(wrong, 1, record_overload=False, rescale_every=0).final
        span = lambda d: max(d.states.values()) - min(d.states.values())
        assert span(raw) >= 2 ** (n - 2)
        assert span(scaled) < 2 ** 6
        check_state_consistency(scaled)


class TestOrientExplicit:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            orient_explicit(triangle(), [(1, 2), (2, 3), (3, 1)])

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="missing direction"):
            orient_explicit(triangle(), [(1, 2), (2, 3)])

    def test_valid_orientation_state_consistent(self):
        dag = orient_explicit(triangle(), [(2, 1), (3, 2), (3, 1)])
        assert is_acyclic(dag)
        check_state_consistency(dag)


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_ranking_orientation_is_acyclic(n, seed):
    rng = random.Random(seed)
    net = random_network(rng, n_min=n, n_max=n, p=0.6)
    ranking = list(range(len(net.nodes)))
    rng.shuffle(ranking)
    dag = orient_by_ranking(net, {node: ranking[i] for i, node in enumerate(sorted(net.nodes))})
    assert is_acyclic(dag)
    check_state_consistency(dag)


class TestErdosRenyiStream:
    """The sampler draws each capacity inline as ``rng.randint`` would: the
    same networks, edges in the same order, and the same generator state
    afterwards as the sampler that called ``randint``."""

    @staticmethod
    def sample(sampler, n, p, rng, **kwargs):
        try:
            net = sampler(n, p, rng, **kwargs)
        except RuntimeError:  # no connected sample within max_tries
            return None
        return list(net.capacity.items()), net

    @given(
        n=st.integers(2, 30),
        p=st.floats(0, 1, exclude_min=True),
        cap_low=st.integers(0, 6),
        width=st.sampled_from([1, 8, 9, 16]),
        connected=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_networks_and_state_as_randint(self, n, p, cap_low, width, connected, seed):
        kwargs = dict(cap_low=cap_low, cap_high=cap_low + width - 1, require_connected=connected, max_tries=20)
        ours, theirs = random.Random(seed), random.Random(seed)
        got = self.sample(erdos_renyi_network, n, p, ours, **kwargs)
        want = self.sample(oracles.erdos_renyi_network, n, p, theirs, **kwargs)
        assert got == want
        assert ours.getstate() == theirs.getstate()

    def test_empty_capacity_range_rejected_up_front(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="empty capacity range"):
            erdos_renyi_network(5, 0.5, rng, cap_low=4, cap_high=3)
        assert rng.getstate() == state
