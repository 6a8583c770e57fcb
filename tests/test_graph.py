"""Network construction, orientations, topology events, and the node order
against the paper's numeric state rule."""
from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfbp import graph
from lfbp.flow import max_flow, max_flow_undirected, smallest_min_cut
from lfbp.graph import (
    DagOrientation,
    InvariantViolation,
    Network,
    apply_topology_event,
    edge_key,
    erdos_renyi_network,
    initial_dag,
    orient_by_ranking,
    orient_explicit,
)
from lfbp.reversal import converge, optimal_dag, reverse_toward

import oracles
from conftest import (
    direction,
    grid_network,
    paper_reverse_toward,
    paper_states,
    random_network,
    random_orientation,
    reference_smallest_min_cut,
    rescale_states,
    signature,
    update_states_after_reversal,
)
from oracles import check_state_consistency, is_acyclic, topological_order


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

    @pytest.mark.parametrize(
        ("nodes", "dest", "message"),
        [([1, 1, 2], 2, "node IDs must be unique"), ([1, 2], 3, "source/destination must be network nodes")],
    )
    def test_rejects_bad_node_set(self, nodes, dest, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Network.build(nodes, [], 1, dest)

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            Network.build([1, 2], [(1, 5, 1)], 1, 2)

    def test_fraction_capacities(self):
        net = Network.build([1, 2], [(1, 2, Fraction(3, 4))], 1, 2)
        assert net.capacity[(1, 2)] == Fraction(3, 4)


class TestInitialDag:
    def test_triangle_all_directions_by_id(self):
        dag = initial_dag(triangle())
        assert direction(dag, (1, 2)) == (1, 2)
        assert direction(dag, (2, 3)) == (2, 3)
        assert direction(dag, (1, 3)) == (1, 3)
        assert dag.states == {1: 0, 2: 1, 3: 2}

    def test_single_edge(self):
        net = Network.build([5, 2], [(5, 2, 1)], 2, 5)
        dag = initial_dag(net)
        assert direction(dag, (2, 5)) == (2, 5)

    def test_grid_points_right_and_down(self):
        net = grid_network(4, 4, 6)
        assert len(net.nodes) == 16 and len(net.capacity) == 24
        dag = initial_dag(net)
        assert dag.live == frozenset(net.capacity)
        for tail, head, _ in dag.directed_edges():
            assert head - tail in (1, 4)  # down within a column, or right one column

    def test_deterministic(self):
        net = triangle()
        a, b = initial_dag(net), initial_dag(net)
        assert signature(a) == signature(b) and a.states == b.states

    def test_acyclic_and_state_consistent(self, rng):
        for _ in range(50):
            dag = random_orientation(rng, random_network(rng, n_max=8))
            assert is_acyclic(dag)
            check_state_consistency(dag)


class TestIsAcyclic:
    def test_direct_three_cycle_detected(self):
        # A node order cannot hold a cycle, so the three-cycle's pairs go
        # straight to the sort that ``is_acyclic`` runs.
        assert topological_order(triangle().nodes, [(1, 2), (2, 3), (3, 1)]) is None

    def test_initial_dag_always_acyclic(self, rng):
        for _ in range(25):
            assert is_acyclic(initial_dag(random_network(rng, n_max=9)))


class TestTopologyEvents:
    def test_add_orients_by_state(self):
        net = Network.build([1, 2], [(1, 2, 1)], 1, 2)
        dag = initial_dag(net)
        dag = apply_topology_event(dag, "remove", (1, 2))
        assert (1, 2) not in dag.live
        back = apply_topology_event(dag, "add", (1, 2))
        assert direction(back, (1, 2)) == (1, 2)

    def test_add_follows_states_not_ids(self):
        net = Network.build([1, 2], [(1, 2, 1)], 1, 2)
        dag = initial_dag(net)
        dag = apply_topology_event(dag, "remove", (1, 2))
        flipped = dag.states | {1: 10}
        dag = DagOrientation(net=net, live=dag.live, states=flipped)
        assert direction(apply_topology_event(dag, "add", (1, 2)), (1, 2)) == (2, 1)

    def test_remove_dead_edge_rejected(self):
        dag = initial_dag(triangle())
        dag = apply_topology_event(dag, "remove", (1, 2))
        with pytest.raises(ValueError, match="dead edge"):
            apply_topology_event(dag, "remove", (1, 2))

    @pytest.mark.parametrize(
        ("action", "edge", "message"),
        [("remove", (1, 3), "edge {1,3} is not part of the network"), ("toggle", (1, 2), "unknown topology action 'toggle'")],
    )
    def test_bad_event_rejected(self, action, edge, message):
        dag = initial_dag(Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], 1, 3))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_topology_event(dag, action, edge)

    def test_add_live_edge_rejected(self):
        dag = initial_dag(triangle())
        with pytest.raises(ValueError, match="live edge"):
            apply_topology_event(dag, "add", (1, 2))

    def test_random_event_sequence_stays_acyclic(self, rng):
        dag = initial_dag(grid_network(4, 4, 6))
        edges = sorted(dag.net.capacity)
        for _ in range(300):
            edge = edges[rng.randrange(len(edges))]
            action = "remove" if edge in dag.live else "add"
            dag = apply_topology_event(dag, action, edge)
            assert is_acyclic(dag)
            check_state_consistency(dag)


def rank_order(states) -> list:
    """The nodes from lowest to highest state."""
    return sorted(states, key=states.__getitem__)


def state_heads(states, live) -> dict:
    """Each live link pointed at its higher-state endpoint."""
    return {(i, j): (j if states[i] < states[j] else i) for i, j in live}


class TestStateUpdates:
    """The paper's drop rule, kept on ``PaperStates`` as the reference."""

    def test_formula_direct_substitution(self):
        net = Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], 1, 3)
        paper = paper_states(net, {1: 1, 2: 2, 3: 3})
        out = update_states_after_reversal(paper, {1}, 1, 10)
        assert out.states == {1: -19, 2: 2, 3: 3}

    def test_empty_set_is_identity(self):
        paper = paper_states(triangle(), {1: 1, 2: 2, 3: 3})
        assert update_states_after_reversal(paper, set(), 3, 10).states == paper.states

    def test_doubling_keeps_overloaded_below_everyone(self):
        paper = paper_states(triangle(), {1: 1, 2: 2, 3: 3})
        for k in range(1, 8):
            paper = update_states_after_reversal(paper, {2}, k, paper.delta)
            assert paper.states[2] < min(paper.states[1], paper.states[3])


class TestRescale:
    """The paper rule's rescaling, kept on ``PaperStates`` as the reference."""

    def test_divides_and_preserves_order(self):
        net = Network.build([1, 2, 3], [(1, 2, 1), (2, 3, 1)], 1, 3)
        paper = paper_states(net, {1: 1, 2: 2, 3: 3})
        paper = update_states_after_reversal(paper, {1}, 1, 10)  # -19, 2, 3
        out = rescale_states(paper, 10)
        assert out.states == {1: Fraction(-19, 10), 2: Fraction(1, 5), 3: Fraction(3, 10)}
        assert out.step == 0
        assert out.delta > max(out.states.values()) - min(out.states.values())

    def test_divisor_one_is_identity_on_states(self):
        paper = paper_states(triangle(), {1: 1, 2: 2, 3: 3})
        assert rescale_states(paper, 1).states == paper.states

    def test_nonpositive_divisor_rejected(self):
        paper = paper_states(triangle(), {1: 1, 2: 2, 3: 3})
        with pytest.raises(ValueError):
            rescale_states(paper, 0)

    def test_rescaling_never_changes_reversal_decisions(self, rng):
        # Along a convergence trace, the paper states with aggressive
        # rescaling and with none both keep the trace's node order.
        for _ in range(20):
            net = random_network(rng, n_min=4, n_max=8, cap_max=5)
            dag = random_orientation(rng, net)
            trace = converge(dag, rng.randint(1, 10), record_overload=False)
            for every in (1, 0):
                paper = paper_states(net, dag.states)
                for entry in trace.entries:
                    assert rank_order(paper.states) == rank_order(entry.dag.states)
                    if entry.reversed_edges:
                        paper = paper_reverse_toward(paper, entry.overloaded, every)
                assert rank_order(paper.states) == rank_order(trace.final.states)

    def test_auto_rescale_keeps_states_small(self):
        # a long wrong-way line forces many reversals; periodic rescaling must
        # keep the state magnitudes tame while the unscaled run blows up
        n = 14
        net = Network.build(range(n), [(i, i + 1, 1) for i in range(n - 1)], 0, n - 1)
        wrong = orient_explicit(net, [(i + 1, i) for i in range(n - 1)])
        trace = converge(wrong, 1, record_overload=False)
        scaled = raw = paper_states(net, wrong.states, delta=n + 1)
        for entry in trace.entries:
            if entry.reversed_edges:
                scaled = paper_reverse_toward(scaled, entry.overloaded, 3)
                raw = paper_reverse_toward(raw, entry.overloaded, 0)
        span = lambda d: max(d.states.values()) - min(d.states.values())
        assert span(raw) >= 2 ** (n - 2)
        assert span(scaled) < 2 ** 6
        assert rank_order(scaled.states) == rank_order(raw.states) == rank_order(trace.final.states)


def dead_end_set(dag, start) -> set:
    """``start`` and every node below it: no link of ``dag`` leaves the set."""
    out: dict = {}
    for tail, head, _ in dag.directed_edges():
        out.setdefault(tail, []).append(head)
    seen, stack = {start}, [start]
    while stack:
        for nxt in out.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@given(
    n=st.integers(3, 30),
    steps=st.integers(1, 40),
    rescale_every=st.sampled_from([0, 1, 3, 32]),
    extra=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_node_order_matches_paper_rule(n, steps, rescale_every, extra, seed):
    """A reversal's stable partition of the node order keeps the order the
    paper's 2^k * delta states give, whatever the rescale cadence and for any
    delta above the starting span: the same order and the same heads."""
    rng = random.Random(seed)
    net = random_network(rng, n_min=n, n_max=n, p=rng.uniform(0.1, 0.6))
    denominator = rng.randint(1, 3)
    values = rng.sample(range(-10 * n, 10 * n), n)
    ranking = {node: Fraction(v, denominator) for node, v in zip(sorted(net.nodes), values)}
    dag = orient_by_ranking(net, ranking)
    start = paper_states(net, ranking)
    paper = paper_states(net, ranking, delta=start.delta + extra)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 2:
            toward = dead_end_set(dag, rng.choice(sorted(net.nodes)))
        else:
            toward = {node for node in net.nodes if rng.random() < 0.4}
            if kind == 1:
                toward.discard(net.source)
        new, flips = reverse_toward(dag, toward)
        if flips:
            paper = paper_reverse_toward(paper, toward, rescale_every)
        else:
            assert new is dag
        dag = new
        assert sorted(dag.states.values()) == list(range(n))
        assert rank_order(paper.states) == rank_order(dag.states)
        assert state_heads(paper.states, dag.live) == {e: direction(dag, e)[1] for e in dag.live}


def mixed_network(rng: random.Random, n: int) -> Network:
    """A random network on 0..n-1 whose capacities mix ints, fractions and
    zeros, its edges built in shuffled order so that ``net.capacity`` order
    is not the sorted one."""
    p = rng.uniform(0.2, 0.8)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                kind = rng.randrange(3)
                if kind == 0:
                    cap = 0
                elif kind == 1:
                    cap = rng.randint(1, 6)
                else:
                    cap = Fraction(rng.randint(1, 12), rng.randint(2, 5))
                edges.append((j, i, cap) if rng.random() < 0.5 else (i, j, cap))
    rng.shuffle(edges)
    return Network.build(range(n), edges, 0, n - 1)


@given(n=st.integers(2, 12), steps=st.integers(40, 60), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_derived_directions_match_heads_reference(n, steps, seed):
    """Directions derived from the node order equal the ones the ``heads``
    map kept, after every reversal (random sets and dead-end sets) and every
    topology event, and the max-flows over them agree.  Until the first
    event, the live links also come out in the reference's order."""
    rng = random.Random(seed)
    net = mixed_network(rng, n)
    values = rng.sample(range(-5 * n, 5 * n), n)
    ranking = {node: Fraction(v, 2) for node, v in zip(range(n), values)}
    dag = orient_by_ranking(net, ranking)
    ref = oracles.reference_orient_by_ranking(net, ranking)
    edges = list(net.capacity)
    had_event = False
    for _ in range(steps):
        kind = rng.randrange(5)
        if kind >= 3 and edges:
            edge = rng.choice(edges)[::rng.choice((1, -1))]
            live = edge_key(*edge) in ref.live
            action = ("remove" if live else "add") if kind == 3 else ("add" if live else "remove")
            if kind == 4:  # the wrong action for the edge's state
                with pytest.raises(ValueError) as want:
                    oracles.reference_apply_topology_event(ref, action, edge)
                with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                    apply_topology_event(dag, action, edge)
                continue
            dag = apply_topology_event(dag, action, edge)
            ref = oracles.reference_apply_topology_event(ref, action, edge)
            had_event = True
        else:
            if kind == 2:
                toward = dead_end_set(ref, rng.randrange(n))
            else:
                toward = {node for node in range(n) if rng.random() < 0.4}
            new, flips = reverse_toward(dag, toward)
            ref, ref_flips = oracles.reference_reverse_toward(ref, toward)
            assert flips == ref_flips
            if not flips:
                assert new is dag
            dag = new
        assert signature(dag) == ref.signature()
        assert dag.live == ref.live
        assert dag.states == ref.states
        if not had_event:
            assert list(dag.directed_edges()) == list(ref.directed_edges())
        assert smallest_min_cut(dag) == reference_smallest_min_cut(ref)
        assert set(max_flow(dag).flow) == ref.signature()


@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_max_flow_reads_the_directions_directed_edges_yields(n, seed):
    """``max_flow`` directs every live link as ``directed_edges`` does, for
    any rank map: one strict comparison decides both, so even tied ranks,
    which no constructor makes, send a link the same way in each."""
    rng = random.Random(seed)
    net = mixed_network(rng, n)
    states = {node: rng.randrange(n // 2 + 1) for node in range(n)}
    live = frozenset(e for e in net.capacity if rng.random() < 0.8)
    dag = DagOrientation(net=net, live=live, states=states)
    flow = max_flow(dag)
    assert set(flow.flow) == signature(dag)
    assert all(0 <= f <= net.capacity[edge_key(u, v)] for (u, v), f in flow.flow.items())
    assert flow.value == reference_smallest_min_cut(dag).capacity


@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
@example(n=2, seed=0)  # no edge at all: fmax = 0
@settings(max_examples=250, deadline=None)
def test_optimal_dag_reaches_undirected_max_flow(n, seed):
    """Link reversal from the ID order at the undirected max-flow ends at an
    orientation that carries it, for any endpoints and for int, ``Fraction``
    and zero capacities, with every link live; an ID order that already
    carries it comes back unchanged."""
    rng = random.Random(seed)
    source, dest = rng.sample(range(n), 2)
    net = replace(mixed_network(rng, n), source=source, dest=dest)
    fmax = max_flow_undirected(net)
    dag = optimal_dag(net)
    assert max_flow(dag).value == fmax
    assert dag.live == frozenset(net.capacity)
    by_id = initial_dag(net)
    if max_flow(by_id).value == fmax:
        assert dag == by_id


class TestOrientExplicit:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            orient_explicit(triangle(), [(1, 2), (2, 3), (3, 1)])

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="missing direction"):
            orient_explicit(triangle(), [(1, 2), (2, 3)])

    @pytest.mark.parametrize("ranking", [{1: 0, 2: 0, 3: 1}, {1: 5, 2: 4, 3: 5}])
    def test_tied_ranking_rejected(self, ranking):
        with pytest.raises(ValueError, match="^ranking values must be distinct$"):
            orient_by_ranking(triangle(), ranking)

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
        except RuntimeError:  # no connected sample within the tries allowed
            return None
        return list(net.capacity.items()), net

    @given(
        n=st.integers(2, 30),
        p=st.floats(0, 1, exclude_min=True),
        cap_low=st.integers(0, 6),
        width=st.sampled_from([1, 8, 9, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_networks_and_state_as_randint(self, n, p, cap_low, width, seed):
        caps = dict(cap_low=cap_low, cap_high=cap_low + width - 1)
        ours, theirs = random.Random(seed), random.Random(seed)
        with mock.patch.object(graph, "ER_MAX_TRIES", 20):
            got = self.sample(erdos_renyi_network, n, p, ours, **caps)
        want = self.sample(oracles.erdos_renyi_network, n, p, theirs, max_tries=20, **caps)
        assert got == want
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_nodes_rejected(self, n):
        with pytest.raises(ValueError, match="^need at least two nodes$"):
            erdos_renyi_network(n, 0.5, random.Random(1))

    def test_empty_capacity_range_rejected_up_front(self):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="empty capacity range"):
            erdos_renyi_network(5, 0.5, rng, cap_low=4, cap_high=3)
        assert rng.getstate() == state
