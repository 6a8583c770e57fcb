"""Max-flow, min-cut, optimal orientation, and the cut granularity bound."""
from __future__ import annotations

import math
import pickle
import random
import time
from fractions import Fraction

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import cli, flow
from lfbp.flow import (
    FlowNetwork,
    MaxFlow,
    _edge_layout,
    delta_bound,
    max_flow,
    max_flow_undirected,
    smallest_min_cut,
)
from lfbp.overload import lex_min_overload
from lfbp.reversal import converge, optimal_dag
from lfbp.graph import DagOrientation, Network, erdos_renyi_network, initial_dag, orient_explicit

from conftest import (
    PairedFlowNetwork,
    ReferenceMaxFlow,
    _arc_network,
    _solve,
    brute_force_max_flow,
    cut_capacity,
    direction,
    exhaustive_smallest_min_cut,
    grid_network,
    net_flow,
    random_network,
    random_orientation,
    signature,
)
from oracles import exhaustive_delta, scanning_blocking_flow


def chain(c1, c2):
    net = Network.build([0, 1, 2], [(0, 1, c1), (1, 2, c2)], 0, 2)
    return initial_dag(net)


SIXNODE_EDGES = [
    (0, 2, 15), (0, 1, 5), (2, 3, 5), (1, 4, 10),
    (1, 2, 5), (3, 4, 5), (3, 5, 15), (4, 5, 5),
]


def sixnode():
    return Network.build(range(6), SIXNODE_EDGES, 0, 5)


class TestMaxFlow:
    def test_line(self):
        assert max_flow(chain(1, 1)).value == 1

    def test_bottleneck(self):
        assert max_flow(chain(2, 1)).value == 1

    def test_unreachable_dest_gives_zero(self):
        net = Network.build([0, 1, 2], [(0, 1, 1), (1, 2, 1)], 0, 2)
        dag = orient_explicit(net, [(1, 0), (2, 1)])
        alloc = max_flow(dag)
        assert alloc.value == 0
        assert all(f == 0 for f in alloc.flow.values())

    def test_allocation_feasible_and_conserving(self, rng):
        for _ in range(60):
            dag = random_orientation(rng, random_network(rng, n_max=8))
            alloc = max_flow(dag)
            caps = dag.net.capacity
            div = {n: 0 for n in dag.net.nodes}
            for (u, v), f in alloc.flow.items():
                edge = (u, v) if u < v else (v, u)
                assert 0 <= f <= caps[edge]
                div[u] += f
                div[v] -= f
            for n in dag.net.nodes:
                if n == dag.net.source:
                    assert div[n] == alloc.value
                elif n == dag.net.dest:
                    assert div[n] == -alloc.value
                else:
                    assert div[n] == 0

    def test_matches_enumeration_oracle(self, rng):
        checked = 0
        while checked < 40:
            net = random_network(rng, n_min=4, n_max=8, cap_max=3, max_edges=9)
            dag = random_orientation(rng, net)
            try:
                expect = brute_force_max_flow(dag)
            except RuntimeError:
                continue
            assert max_flow(dag).value == expect
            checked += 1


def random_arcs(rng):
    """Arc list over shuffled nodes 0..n-1 with integer and Fraction
    capacities, zero-capacity, parallel and antiparallel arcs, and a sink
    that is often cut off from the source."""
    n = rng.randint(2, 10)
    nodes = list(range(n))
    rng.shuffle(nodes)
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(nodes, 2)
        if rng.random() < 0.5:
            cap = rng.randint(0, 6)
        else:
            cap = Fraction(rng.randint(0, 12), rng.randint(1, 6))
        arcs.append((u, v, cap))
        if rng.random() < 0.15:
            arcs.append((v, u, rng.randint(0, 4)))
    s, t = rng.sample(nodes, 2)
    return nodes, arcs, s, t


def merged_capacity(arcs):
    caps = {}
    for u, v, c in arcs:
        if c > 0:
            caps[(u, v)] = caps.get((u, v), 0) + c
    return caps


class TestKernel:
    def test_parallel_arcs_add_up(self):
        assert _solve([0, 1], [(0, 1, 1), (0, 1, 2)], 0, 1).value == 3

    def test_antiparallel_arcs_share_a_pair(self):
        result = _solve([0, 1, 2], [(0, 1, 2), (1, 0, 5), (1, 2, 3)], 0, 2)
        assert result.value == 2
        assert net_flow(result, 0, 1) == 2
        assert net_flow(result, 1, 0) == -2
        assert net_flow(result, 0, 2) == 0

    def test_fraction_capacities_stay_exact(self):
        result = _solve([0, 1, 2], [(0, 1, Fraction(1, 3)), (0, 2, Fraction(1, 2)), (1, 2, 1)], 0, 2)
        assert result.value == Fraction(5, 6)
        assert net_flow(result, 1, 2) == Fraction(1, 3)

    def test_unreachable_sink(self):
        result = _solve([0, 1, 2, 3], [(0, 1, 1), (2, 1, 1), (2, 3, 0)], 0, 3)
        assert result.value == 0
        assert result.source_side == frozenset({0, 1})
        assert result.maximal_source_side() == frozenset({0, 1, 2})

    def test_flows_bounded_and_conserved(self, rng):
        for _ in range(300):
            nodes, arcs, s, t = random_arcs(rng)
            result = _solve(nodes, arcs, s, t)
            caps = merged_capacity(arcs)
            excess = {n: 0 for n in nodes}
            for u in nodes:
                for v in nodes:
                    if u == v:
                        continue
                    f = net_flow(result, u, v)
                    assert f == -net_flow(result, v, u)
                    assert -caps.get((v, u), 0) <= f <= caps.get((u, v), 0)
                    excess[u] += f
            for n in nodes:
                expect = result.value if n == s else -result.value if n == t else 0
                assert excess[n] == expect

    def test_matches_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.flow import edmonds_karp

        unreachable = 0
        for _ in range(300):
            nodes, arcs, s, t = random_arcs(rng)
            graph = nx.DiGraph()
            graph.add_nodes_from(nodes)
            for (u, v), c in merged_capacity(arcs).items():
                graph.add_edge(u, v, capacity=c)
            flow = edmonds_karp(graph, s, t)
            residual = nx.DiGraph()
            residual.add_nodes_from(nodes)
            residual.add_edges_from(
                (u, v) for u, v, a in flow.edges(data=True) if a["capacity"] - a["flow"] > 0
            )
            smallest = frozenset(nx.descendants(residual, s) | {s})
            maximal = frozenset(nodes) - nx.ancestors(residual, t) - {t}

            result = _solve(nodes, arcs, s, t)
            assert result.value == flow.graph["flow_value"]
            assert result.source_side == smallest
            assert result.maximal_source_side() == maximal
            unreachable += result.value == 0
        assert unreachable >= 30


class TestFlowNetworkResolve:
    """One arc structure solved again with new capacities gives what a fresh
    ``_solve`` of the same arcs gives."""

    @staticmethod
    def scaled(network, arcs):
        scale = math.lcm(*{Fraction(c).denominator for _, _, c in arcs})
        res = [0] * len(network.head)
        for u, v, c in arcs:
            res[network.pair(u, v)] += int(c * scale)
        return res, scale

    def test_two_capacity_vectors_in_a_row(self, rng):
        for _ in range(200):
            nodes, arcs, s, t = random_arcs(rng)
            network = PairedFlowNetwork(nodes)
            for u, v, _ in arcs:
                network.pair(u, v)
            redrawn = [(u, v, rng.choice((0, 1, 3, Fraction(5, 2), Fraction(rng.randint(1, 9), 4)))) for u, v, _ in arcs]
            for capacities in (arcs, redrawn, arcs):
                res, scale = self.scaled(network, capacities)
                got = network.solve(res, s, t, scale)
                want = _solve(nodes, capacities, s, t)
                assert got.value == want.value
                assert got.source_side == want.source_side
                assert got.maximal_source_side() == want.maximal_source_side()

    def test_pair_returns_the_twin_for_the_reverse_arc(self):
        network = PairedFlowNetwork(["a", "b", "c"])
        k = network.pair("a", "b")
        assert network.pair("a", "b") == k
        assert network.pair("b", "a") == k ^ 1
        assert network.pair("b", "c") == k + 2
        assert len(network.head) == 4


class TestPrunedKernel:
    """Dropping the other nodes at the sink's level before each blocking flow
    leaves the same augmenting paths: the residual, the value and both
    min-cut sides equal those of the kernel without the pruning."""

    @staticmethod
    def both(net, res, scale, s, t):
        si, ti = net.index[s], net.index[t]
        return MaxFlow(net, res[:], si, ti, scale), ReferenceMaxFlow(net, res[:], si, ti, scale)

    def assert_same(self, got, want):
        assert got._res == want._res
        assert (type(got.value), got.value) == (type(want.value), want.value)
        assert got.source_side == want.source_side
        assert got.maximal_source_side() == want.maximal_source_side()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_residual_on_arc_lists(self, data):
        n = data.draw(st.integers(2, 10))
        capacity = st.one_of(
            st.just(0), st.integers(1, 9), st.fractions(min_value=0, max_value=9, max_denominator=6)
        )
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), capacity).filter(lambda a: a[0] != a[1])
        arcs = data.draw(st.lists(arc, max_size=4 * n))
        s, t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        self.assert_same(*self.both(*_arc_network(range(n), arcs), s, t))

    def test_same_residual_on_er_graphs(self):
        rng = random.Random(0xD1C)
        for _ in range(12):
            net = erdos_renyi_network(rng.randint(20, 60), rng.choice((0.1, 0.3, 0.5)), rng)
            arcs = [(i, j, c) for (i, j), c in net.capacity.items()]
            arcs += [(j, i, c) for i, j, c in arcs]
            self.assert_same(*self.both(*_arc_network(sorted(net.nodes), arcs), net.source, net.dest))


@contextmanager
def lockstep_blocking_flow():
    """Run every blocking flow of the package next to the scanning reference
    on copies of its residual and levels, and check that both push the same
    flow and leave the same residual and levels.  Yields the list of the
    flows pushed."""
    shortcut, pushed = flow._blocking_flow, []

    def both(adj, head, res, level, last, s, t):
        want_res, want_level = res[:], level[:]
        want = scanning_blocking_flow(adj, head, want_res, want_level, s, t)
        pushed.append(shortcut(adj, head, res, level, last, s, t))
        assert (pushed[-1], res, level) == (want, want_res, want_level)
        return pushed[-1]

    with mock.patch.object(flow, "_blocking_flow", both):
        yield pushed


class TestLastHop:
    """The blocking flow takes its last hop through each node's one arc into
    the sink, recorded once per max-flow.  It pushes what the scanning
    reference pushes, phase by phase, so flows, residuals and cuts stay the
    same."""

    @staticmethod
    def pairs(n, twins):
        """A ``FlowNetwork`` on 0..n-1 with one twin pair per ``(u, v, c,
        back)``, capacity ``c`` from ``u`` to ``v`` and ``back`` the other
        way, zeros included, and its residual."""
        net, res = FlowNetwork(range(n)), []
        for u, v, c, back in twins:
            net.head += (v, u)
            net.adj[u].append(len(res))
            net.adj[v].append(len(res) + 1)
            res += (c, back)
        return net, res

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_solve_as_scanning_reference(self, data):
        n = data.draw(st.integers(2, 9))
        s, t = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        links = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        links = list(dict.fromkeys(tuple(sorted(link)) for link in links if link[0] != link[1]))
        if data.draw(st.booleans(), label="sink without arcs"):
            links = [link for link in links if t not in link]
        elif data.draw(st.booleans(), label="direct source-sink link") and (min(s, t), max(s, t)) not in links:
            links.append((min(s, t), max(s, t)))
        cap = st.sampled_from((0, 0, 1, 2, 3, 7))
        twins = [(u, v, data.draw(cap), data.draw(cap)) for u, v in data.draw(st.permutations(links))]
        net, res = self.pairs(n, twins)
        got = net.solve(res[:], s, t, 1)
        with lockstep_blocking_flow():
            net.solve(res[:], s, t, 1)
        def scanning(adj, head, res, level, last, s, t):
            return scanning_blocking_flow(adj, head, res, level, s, t)

        with mock.patch.object(flow, "_blocking_flow", scanning):
            want = net.solve(res[:], s, t, 1)
        assert (got._res, got.value, got.source_side) == (want._res, want.value, want.source_side)

    def test_sink_without_arcs_and_direct_link(self):
        net, res = self.pairs(3, [(0, 1, 4, 0)])
        assert net.solve(res, 0, 2, 1).value == 0
        net, res = self.pairs(3, [(0, 2, 3, 0), (0, 1, 5, 0), (1, 2, 2, 0)])
        with lockstep_blocking_flow() as pushed:
            got = net.solve(res, 0, 2, 1)
        assert pushed == [3, 2] and got.value == 5 and got.source_side == frozenset({0, 1})

    def test_analysis_in_lockstep(self, rng):
        # Orientations kept warm across reversals, undirected solves and the
        # lex-min overload's auxiliary network, on zero and fraction
        # capacities too.
        with lockstep_blocking_flow() as pushed:
            for _ in range(100):
                net = random_network(rng, n_min=3, n_max=9)
                caps = {e: rng.choice((0, c, Fraction(c, 3))) for e, c in net.capacity.items()}
                net = Network(net.nodes, caps, net.source, net.dest)
                dag = random_orientation(rng, net)
                fmax = max_flow_undirected(net)
                converge(dag, fmax + rng.choice((0, 1)), record_overload=True)
                lex_min_overload(dag, fmax)
        assert len(pushed) > 500 and any(pushed)

    def test_every_package_network_has_one_arc_into_the_sink(self, rng):
        # The shortcut's premise, on the networks the package itself builds:
        # an edge layout per network and one auxiliary network per overload.
        solve, seen = FlowNetwork.solve, []

        def spy(net, res, s, t, scale):
            into = [net.head[k] for k in net.adj[net.index[t]]]
            assert len(into) == len(set(into))
            seen.append(type(t).__name__)
            return solve(net, res, s, t, scale)

        with mock.patch.object(FlowNetwork, "solve", spy):
            cli.er_batch(3, (40, 80), seed=rng.randint(0, 99))
            for _ in range(20):
                dag = random_orientation(rng, random_network(rng, n_min=3, n_max=9))
                converge(dag, max_flow_undirected(dag.net), record_overload=True)
                max_flow(dag)
        # An edge layout's sink is a node ID, an auxiliary network's a sentinel.
        assert seen.count("int") > 50 and seen.count("object") > 20

    def test_second_arc_into_the_sink_rejected(self):
        net, res = self.pairs(3, [(0, 2, 1, 0), (0, 1, 1, 0), (1, 2, 1, 0), (2, 1, 1, 0)])
        with pytest.raises(ValueError, match="^node 1 has more than one arc into the sink$"):
            net.solve(res, 0, 2, 1)


class TestEdgeLayout:
    """Each ``Network`` builds its edge-indexed arcs once, on its first
    max-flow, and keeps them in a private slot outside its fields."""

    def test_built_once_and_shared_by_orientations(self):
        net = sixnode()
        max_flow_undirected(net)
        layout = _edge_layout(net)
        smallest_min_cut(initial_dag(net))
        max_flow(initial_dag(net))
        optimal_dag(net)
        assert _edge_layout(net) is layout

    def test_replaced_and_equal_networks_get_their_own(self):
        net = sixnode()
        assert max_flow_undirected(net) == 15
        halved = net.replace(capacity={e: Fraction(c, 2) for e, c in net.capacity.items()})
        assert halved._flow_layout is None
        assert max_flow_undirected(halved) == Fraction(15, 2)
        assert smallest_min_cut(initial_dag(halved)).capacity == smallest_min_cut(initial_dag(net)).capacity / 2
        twin = sixnode()
        assert twin == net and max_flow_undirected(twin) == 15
        layouts = [_edge_layout(x) for x in (net, halved, twin)]
        assert len({id(layout[0]) for layout in layouts}) == 3

    def test_repr_and_equality_ignore_the_layout(self):
        net, fresh = sixnode(), sixnode()
        before = repr(net)
        max_flow(initial_dag(net))
        assert net._flow_layout is not None
        assert repr(net) == before == repr(fresh)
        assert net == fresh and fresh == net

    def test_pickle_round_trip_gives_equal_flows(self):
        net = sixnode()
        dag = initial_dag(net)
        want = max_flow(dag)
        copy = pickle.loads(pickle.dumps(net))
        assert copy == net and copy._flow_layout is None
        assert max_flow_undirected(copy) == max_flow_undirected(net)
        assert max_flow(initial_dag(copy)) == want
        assert smallest_min_cut(initial_dag(copy)) == smallest_min_cut(dag)


class TestMaxFlowUndirected:
    def test_sixnode_is_fifteen(self):
        assert max_flow_undirected(sixnode()) == 15

    def test_fully_failed_grid_is_zero(self):
        from lfbp.graph import apply_topology_event

        net = grid_network(4, 4, 6)
        dag = initial_dag(net)
        for edge in sorted(net.capacity):
            dag = apply_topology_event(dag, "remove", edge)
        assert max_flow(dag).value == 0

    def test_grid_is_twelve(self):
        assert max_flow_undirected(grid_network(4, 4, 6)) == 12


class TestSmallestMinCut:
    def test_bottleneck_downstream(self):
        cut = smallest_min_cut(chain(2, 1))
        assert cut.source_side == frozenset({0, 1})
        assert cut.capacity == 1

    def test_bottleneck_upstream(self):
        cut = smallest_min_cut(chain(1, 2))
        assert cut.source_side == frozenset({0})
        assert cut.capacity == 1

    @pytest.mark.parametrize("node", [0, 1, 5])
    def test_equal_endpoints_rejected(self, node):
        with pytest.raises(ValueError, match="^source and sink must differ$"):
            smallest_min_cut(initial_dag(sixnode()), node, node)

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(120):
            dag = random_orientation(rng, random_network(rng, n_min=4, n_max=9, cap_max=5))
            side, cap = exhaustive_smallest_min_cut(dag)
            cut = smallest_min_cut(dag)
            assert cut.capacity == cap
            assert cut.source_side == side

    def test_capacity_equals_max_flow(self, rng):
        for _ in range(60):
            dag = random_orientation(rng, random_network(rng, n_max=9))
            cut = smallest_min_cut(dag)
            assert cut.capacity == max_flow(dag).value
            assert cut.capacity == cut_capacity(dag, cut.source_side, dag.net.nodes - cut.source_side)


class TestCutCapacity:
    def test_single_edge(self):
        net = Network.build([0, 1], [(0, 1, 7)], 0, 1)
        dag = initial_dag(net)
        assert cut_capacity(dag, {0}, {1}) == 7

    def test_reversed_edge_counts_zero(self):
        net = Network.build([0, 1], [(0, 1, 7)], 0, 1)
        dag = orient_explicit(net, [(1, 0)])
        assert cut_capacity(dag, {0}, {1}) == 0

    def test_overlap_rejected(self):
        dag = initial_dag(sixnode())
        with pytest.raises(ValueError, match="overlap"):
            cut_capacity(dag, {0, 1}, {1, 2})


class TestOptimalDag:
    def test_sixnode_reaches_fifteen(self):
        dag = optimal_dag(sixnode())
        assert max_flow(dag).value == 15

    def test_path_tree_points_toward_dest(self):
        net = Network.build(range(4), [(0, 1, 2), (1, 2, 2), (2, 3, 2)], 0, 3)
        dag = optimal_dag(net)
        assert direction(dag, (0, 1)) == (0, 1)
        assert direction(dag, (1, 2)) == (1, 2)
        assert direction(dag, (2, 3)) == (2, 3)

    def test_branchy_tree_flow_path_toward_dest(self):
        # star with an off-path leaf: the carrying path must follow the flow
        net = Network.build(range(4), [(0, 1, 3), (1, 3, 3), (1, 2, 1)], 0, 3)
        dag = optimal_dag(net)
        assert direction(dag, (0, 1)) == (0, 1)
        assert direction(dag, (1, 3)) == (1, 3)
        assert max_flow(dag).value == 3

    def test_never_loses_throughput(self, rng):
        for _ in range(80):
            net = random_network(rng, n_min=3, n_max=9, cap_max=6)
            dag = optimal_dag(net)
            assert max_flow(dag).value == max_flow_undirected(net)

    def test_deterministic(self, rng):
        for _ in range(10):
            net = random_network(rng, n_max=8)
            assert signature(optimal_dag(net)) == signature(optimal_dag(net))


class TestDeltaBound:
    def test_unit_capacities(self):
        net = Network.build(range(4), [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], 0, 3)
        assert delta_bound(net) == exhaustive_delta(net) == 1

    def test_fractional_analytic_lcd(self):
        net = Network.build(
            range(3), [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 3))], 0, 2
        )
        assert delta_bound(net) == exhaustive_delta(net) == Fraction(1, 6)
        # a 24-edge path: g = gcd(3, 2) = 1 over D = lcm(2, 3)
        path = [(i, i + 1, Fraction(1, 2 + i % 2)) for i in range(24)]
        assert delta_bound(Network.build(range(25), path, 0, 24)) == Fraction(1, 6)

    def test_powers_of_two_exhaustive(self):
        net = Network.build(range(4), [(0, 1, 1), (1, 2, 2), (2, 3, 4)], 0, 3)
        assert delta_bound(net) == exhaustive_delta(net) == 1

    def test_exhaustive_finds_small_gaps(self):
        net = Network.build(range(3), [(0, 1, 3), (1, 2, Fraction(5, 2))], 0, 2)
        # subset sums: 0, 5/2, 3, 11/2 -> smallest positive gap 1/2
        assert delta_bound(net) == exhaustive_delta(net) == Fraction(1, 2)

    def test_degenerate_all_zero(self):
        net = Network.build(range(2), [(0, 1, 0)], 0, 1)
        with pytest.raises(ValueError, match="degenerate"):
            delta_bound(net)

    def test_analytic_never_exceeds_exhaustive(self, rng):
        # 1/D <= g/D <= the smallest subset-sum gap, which is a multiple of g/D
        for _ in range(20):
            net = random_network(rng, n_max=5, cap_max=6, max_edges=8)
            analytic = Fraction(1, math.lcm(*(c.denominator for c in net.capacity.values())))
            delta, exact = delta_bound(net), exhaustive_delta(net)
            assert analytic <= delta <= exact
            assert (exact / delta).denominator == 1

    def test_gcd_bound_on_fixed_networks(self):
        small = Network.build(range(3), [(0, 1, 3), (1, 2, 5)], 0, 2)
        assert delta_bound(small) == 1 and exhaustive_delta(small) == 2
        big = grid_network(4, 4, 6)  # 24 edges: past the exhaustive oracle's reach
        assert delta_bound(big) == 6
        with pytest.raises(ValueError, match="limited"):
            exhaustive_delta(big)

    def test_every_cut_is_a_multiple(self, rng):
        for trial in range(30):
            net = random_network(rng, n_max=7, cap_max=12)
            if trial % 2:
                edges = [(i, j, Fraction(c, rng.choice((1, 2, 3, 4)))) for (i, j), c in net.capacity.items()]
                net = Network.build(net.nodes, edges, net.source, net.dest)
            dag, delta = random_orientation(rng, net), delta_bound(net)
            inner = [v for v in net.nodes if v not in (net.source, net.dest)]
            for mask in range(1 << len(inner)):
                side = {net.source} | {v for k, v in enumerate(inner) if mask >> k & 1}
                cap = cut_capacity(dag, side, set(net.nodes) - side)
                assert (cap / delta).denominator == 1, (net, side, cap, delta)

    def test_auto_is_exact_at_small_capacities(self):
        # Capacities 2-10, even: the gcd is 2, and so is the smallest gap
        # between subset sums.
        rng = random.Random(11)
        for _ in range(20):
            path = [(i, i + 1, rng.choice([2, 4, 6, 8, 10])) for i in range(20)]
            net = Network.build(range(21), path, 0, 20)
            assert delta_bound(net) == exhaustive_delta(net) == 2

    def test_large_capacities_cost_one_gcd(self):
        # 20 edges of capacity 10^6-10^7 have about 2^20 distinct subset
        # sums; the bound enumerates none of them.
        rng = random.Random(7)
        path = [(i, i + 1, rng.randint(10**6, 10**7)) for i in range(20)]
        net = Network.build(range(21), path, 0, 20)
        start = time.process_time()
        assert delta_bound(net) == Fraction(1, 1)
        assert time.process_time() - start < 1.0
