"""Lexicographic overload vectors: production algorithm vs the grid oracle."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp.flow import FlowNetwork, max_flow, max_flow_undirected, smallest_min_cut
from lfbp.graph import Network, erdos_renyi_network, initial_dag
from lfbp.overload import lex_min_overload

from conftest import random_network, random_orientation, reference_lex_min_overload
from oracles import brute_force_lex_min, lex_compare, lex_key, overloaded_set


def chain(c1, c2):
    return initial_dag(Network.build([0, 1, 2], [(0, 1, c1), (1, 2, c2)], 0, 2))


def adaptive_grid(ov):
    denoms = [Fraction(q).denominator for q in ov.rates.values()]
    denoms += [Fraction(f).denominator for f in ov.inducing_flow.flow.values()]
    return Fraction(1, lcm(*denoms))


def check_edge_properties(dag, ov):
    """The two pointwise flow properties that certify lexicographic optimality."""
    rates = ov.rates
    flow = ov.inducing_flow.flow
    for u, v, cap in dag.directed_edges():
        if u == dag.net.dest:
            continue
        if rates[u] < rates[v]:
            assert flow[(u, v)] == 0, (u, v)
        if rates[u] > rates[v]:
            assert flow[(u, v)] == cap, (u, v)


class TestLexCompare:
    def test_sorted_descending_comparison(self):
        assert lex_compare((3, 2, 1, 2, 1), (1, 2, 3, 2, 2)) == -1

    def test_permutations_equal(self):
        assert lex_compare((1, 5, 2), (5, 2, 1)) == 0

    def test_zero_vs_one(self):
        assert lex_compare((0, 0), (1, 0)) == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            lex_compare((1,), (1, 2))

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, values, data):
        shuffled = data.draw(st.permutations(values))
        assert lex_compare(values, shuffled) == 0

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 3)
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_total_order_properties(self, triple):
        u, v, w = triple
        assert lex_compare(u, v) == -lex_compare(v, u)
        if lex_compare(u, v) <= 0 and lex_compare(v, w) <= 0:
            assert lex_compare(u, w) <= 0


class TestLexMinOverload:
    def test_supported_rate_gives_zero(self, rng):
        for _ in range(20):
            dag = random_orientation(rng, random_network(rng))
            fk = max_flow(dag).value
            ov = lex_min_overload(dag, fk)
            assert all(q == 0 for q in ov.rates.values())

    def test_chain_unit_caps(self):
        ov = lex_min_overload(chain(1, 1), 3)
        assert ov.rates == {0: 2, 1: 0, 2: 0}

    def test_chain_fractional_cap(self):
        ov = lex_min_overload(chain(1, Fraction(1, 2)), 3)
        assert ov.rates == {0: 2, 1: Fraction(1, 2), 2: 0}

    def test_balanced_split_is_fractional(self):
        ov = lex_min_overload(chain(4, 1), 4)
        assert ov.rates == {0: Fraction(3, 2), 1: Fraction(3, 2), 2: 0}

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            lex_min_overload(chain(1, 1), -1)

    def test_dest_rate_always_zero(self, rng):
        for _ in range(30):
            dag = random_orientation(rng, random_network(rng))
            ov = lex_min_overload(dag, rng.randint(0, 8))
            assert ov.rates[dag.net.dest] == 0

    def test_total_overload_and_throughput(self, rng):
        # total growth = rate - min(rate, dag max-flow); delivery saturates
        for _ in range(40):
            dag = random_orientation(rng, random_network(rng))
            rate = rng.randint(0, 8)
            fk = max_flow(dag).value
            ov = lex_min_overload(dag, rate)
            assert ov.total() == max(0, rate - min(rate, fk))
            assert ov.inducing_flow.value == min(rate, fk)

    def test_edge_properties_pointwise(self, rng):
        for _ in range(60):
            dag = random_orientation(rng, random_network(rng))
            ov = lex_min_overload(dag, rng.randint(0, 8))
            check_edge_properties(dag, ov)

    def test_support_equals_smallest_min_cut(self, rng):
        seen = 0
        while seen < 60:
            dag = random_orientation(rng, random_network(rng, n_max=9))
            rate = rng.randint(1, 10)
            cut = overloaded_set(dag, rate)
            ov = lex_min_overload(dag, rate)
            if cut is None:
                assert ov.support() == frozenset()
                continue
            assert ov.support() == cut.source_side
            assert cut.source_side == smallest_min_cut(dag).source_side
            seen += 1

    def test_backward_witness_edge_exists(self, rng):
        # whenever the orientation under-supports a feasible rate, some live
        # edge runs from a zero-growth node into a growing one
        seen = 0
        while seen < 40:
            dag = random_orientation(rng, random_network(rng, n_max=8))
            fk = max_flow(dag).value
            fmax = max_flow_undirected(dag.net)
            if not fk < fmax:
                continue
            rate = fmax  # fk < rate <= fmax
            ov = lex_min_overload(dag, rate)
            witnesses = [
                (u, v)
                for u, v, _ in dag.directed_edges()
                if ov.rates[u] == 0 and ov.rates[v] > 0
            ]
            assert witnesses
            seen += 1

    def test_no_witness_means_network_max_flow(self, rng):
        # termination: overloaded but nothing to reverse only at full max-flow
        seen = 0
        while seen < 25:
            dag = random_orientation(rng, random_network(rng, n_max=8))
            fk = max_flow(dag).value
            rate = fk + 1
            ov = lex_min_overload(dag, rate)
            witnesses = [
                (u, v)
                for u, v, _ in dag.directed_edges()
                if ov.rates[u] == 0 and ov.rates[v] > 0
            ]
            if witnesses:
                continue
            assert fk == max_flow_undirected(dag.net)
            seen += 1

    def test_deterministic(self, rng):
        for _ in range(10):
            dag = random_orientation(rng, random_network(rng))
            rate = rng.randint(0, 8)
            assert lex_min_overload(dag, rate).rates == lex_min_overload(dag, rate).rates

    def test_fractional_capacities_certified_optimal(self, rng):
        # rational capacities: verify the complete optimality certificate
        # (feasibility, nonnegativity, saturation/idleness pointwise, and the
        # throughput identity) on every instance
        for _ in range(80):
            n = rng.randint(3, 7)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        edges.append((i, j, Fraction(rng.randint(0, 12), rng.randint(1, 6))))
            if not edges:
                continue
            net = Network.build(range(n), edges, 0, n - 1)
            dag = random_orientation(rng, net)
            rate = Fraction(rng.randint(0, 40), rng.randint(1, 5))
            ov = lex_min_overload(dag, rate)
            assert all(q >= 0 for q in ov.rates.values())
            fk = max_flow(dag).value
            assert ov.total() == max(0, rate - min(rate, fk))
            flow = ov.inducing_flow.flow
            caps = net.capacity
            for (u, v), f in flow.items():
                assert 0 <= f <= caps[(u, v) if u < v else (v, u)]
            check_edge_properties(dag, ov)

    def test_destination_out_edges_carry_nothing(self):
        # the destination absorbs; a live link pointing out of it stays idle
        from lfbp.graph import orient_explicit

        net = Network.build([0, 1, 2], [(0, 1, 1), (0, 2, 2), (1, 2, 3)], 0, 2)
        dag = orient_explicit(net, [(0, 1), (0, 2), (2, 1)])
        ov = lex_min_overload(dag, 5)
        assert ov.rates == {0: 2, 1: 1, 2: 0}
        assert ov.inducing_flow.flow[(2, 1)] == 0
        assert ov.inducing_flow.value == 2


def typed(mapping):
    return {key: (type(value), value) for key, value in mapping.items()}


def random_capacity_dag(rng, n, fractional):
    """A random orientation of a random network on n nodes; capacities are
    integers in [0, 9] or fractions with denominators up to 6."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                if fractional:
                    cap = Fraction(rng.randint(0, 12), rng.randint(1, 6))
                else:
                    cap = rng.randint(0, 9)
                edges.append((i, j, cap))
    return random_orientation(rng, Network.build(range(n), edges, 0, n - 1))


def check_inducing_flow(dag, rate, ov):
    """The flow is within capacity, delivers what does not queue, and its
    conservation residues are exactly the rates."""
    net = dag.net
    flow = ov.inducing_flow.flow
    assert set(flow) == {(u, v) for u, v, _ in dag.directed_edges()}
    residue = {n: (rate if n == net.source else 0) for n in net.nodes}
    for u, v, cap in dag.directed_edges():
        f = flow[(u, v)]
        assert 0 <= f <= cap, (u, v)
        assert u != net.dest or f == 0, (u, v)
        residue[u] -= f
        residue[v] += f
    for n in net.nodes:
        if n != net.dest:
            assert residue[n] == ov.rates[n], n
    delivered = sum(flow[(u, v)] for u, v, _ in dag.directed_edges() if v == net.dest)
    assert ov.inducing_flow.value == delivered == rate - ov.total()
    check_edge_properties(dag, ov)


class TestAgainstReference:
    """The breakpoint search against the earlier solver, which peeled one
    level at a time with a fresh max-flow network per density guess.  The
    rates are unique and pinned with their types; the inducing flow is not
    unique, so it is checked for validity."""

    def test_equal_to_reference_solver(self):
        rng = random.Random(0x5EED)
        peels = fractional_levels = 0
        for case in range(240):
            dag = random_capacity_dag(rng, rng.randint(4, 30), fractional=case % 2 == 1)
            fk = max_flow(dag).value
            for rate in (fk * Fraction(rng.randint(0, 9), 10), fk, fk + Fraction(rng.randint(1, 40), rng.randint(1, 4))):
                got = lex_min_overload(dag, rate)
                want = reference_lex_min_overload(dag, rate)
                assert typed(got.rates) == typed(want.rates), (case, rate)
                check_inducing_flow(dag, rate, got)
                got_value, want_value = got.inducing_flow.value, want.inducing_flow.value
                assert (type(got_value), got_value) == (type(want_value), want_value), (case, rate)
                levels = {q for q in got.rates.values() if q > 0}
                peels += len(levels) > 1
                fractional_levels += any(type(q) is Fraction for q in levels)
        # The instances must exercise several peels and non-integral densities.
        assert peels >= 60
        assert fractional_levels >= 120

    def test_er_graphs_equal_reference_and_pinned_flows(self):
        # The rates against the reference solver, and the rates and inducing
        # flows (types included) against a digest of what lex_min_overload
        # returned before its auxiliary network was built in bulk.
        digest = hashlib.sha256()
        rng = random.Random(0xE12)
        for case in range(8):
            net = erdos_renyi_network(rng.randint(20, 60), rng.choice((0.15, 0.3, 0.5)), rng)
            dag = random_orientation(rng, net)
            fk = max_flow(dag).value
            for rate in (fk, max_flow_undirected(net), fk + Fraction(rng.randint(1, 40), rng.randint(1, 4))):
                got = lex_min_overload(dag, rate)
                want = reference_lex_min_overload(dag, rate)
                assert typed(got.rates) == typed(want.rates), (case, rate)
                got_value, want_value = got.inducing_flow.value, want.inducing_flow.value
                assert (type(got_value), got_value) == (type(want_value), want_value), (case, rate)
                check_inducing_flow(dag, rate, got)
                digest.update(repr([(e, type(f).__name__, f) for e, f in got.inducing_flow.flow.items()]).encode())
                digest.update(repr(sorted((n, type(q).__name__, q) for n, q in got.rates.items())).encode())
        assert digest.hexdigest() == "8eec490e7fe4f647a0e52c3679df1a67b4d5bf47a4f82497ea2f321c1d7aaa87"

    @staticmethod
    def count_solves(monkeypatch) -> list:
        calls = []
        solve = FlowNetwork.solve

        def counting(self, *args):
            calls.append(None)
            return solve(self, *args)

        monkeypatch.setattr(FlowNetwork, "solve", counting)
        return calls

    def test_at_most_two_solves_per_rate_value_and_one_more(self, monkeypatch):
        # One solve at tau = 0, then one per pair of nested cut sides that
        # holds more than one node: d distinct positive rates, s of them
        # held by one node each, take at most 2*d + 1 - s solves.
        calls = self.count_solves(monkeypatch)
        rng = random.Random(0x50DE)
        multi_level = singles = 0
        for case in range(200):
            dag = random_capacity_dag(rng, rng.randint(4, 20), fractional=case % 2 == 1)
            fk = max_flow(dag).value
            for rate in (fk, fk + Fraction(rng.randint(1, 40), rng.randint(1, 4))):
                calls.clear()
                sizes = Counter(q for q in lex_min_overload(dag, rate).rates.values() if q > 0)
                d, s = len(sizes), list(sizes.values()).count(1)
                assert len(calls) <= 2 * d + 1 - s, (case, rate, d, s, len(calls))
                multi_level += d > 1
                singles += s
        assert multi_level >= 50 and singles >= 50

    def test_single_node_levels_take_no_solve(self, monkeypatch):
        # On the path 0 -> 1 -> 2 -> 3 every node holds its own level.  The
        # tau = 0 solve and the two splits are the only solves; each
        # single-node pair is a level as it stands.
        calls = self.count_solves(monkeypatch)
        net = Network.build(range(4), [(0, 1, 4), (1, 2, 2), (2, 3, 1)], 0, 3)
        assert lex_min_overload(initial_dag(net), 7).rates == {0: 3, 1: 2, 2: 1, 3: 0}
        assert len(calls) == 3

    def test_peeled_nodes_stay_out_of_later_peels(self):
        # 0 -> 1 -> 2: {0} peels first, at rate - 2, then node 1 takes the
        # saturated link's 2 as supply and peels at 2 - 1 = 1.  The peeled
        # node 0 stays in the auxiliary network with no capacity and must not
        # rejoin the second peel.
        dag = chain(2, 1)
        for rate, top in ((5, 3), (Fraction(17, 3), Fraction(11, 3))):
            got = lex_min_overload(dag, rate)
            assert typed(got.rates) == typed({0: top, 1: 1, 2: 0})
            assert typed(got.rates) == typed(reference_lex_min_overload(dag, rate).rates)


class TestBruteForce:
    def test_supported_rate_gives_zero(self):
        ov = brute_force_lex_min(chain(2, 2), 2)
        assert all(q == 0 for q in ov.rates.values())

    def test_single_edge_quarter_grid(self):
        net = Network.build([0, 1], [(0, 1, 1)], 0, 1)
        ov = brute_force_lex_min(initial_dag(net), 2, grid=Fraction(1, 4))
        assert ov.rates == {0: 1, 1: 0}
        assert ov.inducing_flow.flow[(0, 1)] == 1

    def test_chain_examples_match_production(self):
        for dag, rate, grid in [
            (chain(1, 1), 3, 1),
            (chain(1, Fraction(1, 2)), 3, Fraction(1, 2)),
            (chain(4, 1), 4, Fraction(1, 2)),
        ]:
            assert brute_force_lex_min(dag, rate, grid=grid).rates == lex_min_overload(dag, rate).rates

    def test_rejects_large_instances(self, rng):
        net = random_network(rng, n_min=7, n_max=8, p=0.9)
        with pytest.raises(ValueError, match="too large"):
            brute_force_lex_min(random_orientation(rng, net), 4)

    def test_rejects_misaligned_grid(self):
        with pytest.raises(ValueError, match="multiple of grid"):
            brute_force_lex_min(chain(1, Fraction(1, 2)), 1, grid=1)

    def test_oracle_equivalence_batch(self, rng):
        # the heavyweight 500-instance version lives in the acceptance suite
        done = 0
        while done < 60:
            net = random_network(rng, n_min=3, n_max=6, cap_max=4, max_edges=9)
            dag = random_orientation(rng, net)
            rate = rng.randint(0, 8)
            ov = lex_min_overload(dag, rate)
            try:
                bf = brute_force_lex_min(dag, rate, grid=adaptive_grid(ov))
            except ValueError:
                continue
            assert bf.rates == ov.rates
            done += 1

    def test_oracle_never_finds_smaller(self, rng):
        done = 0
        while done < 30:
            net = random_network(rng, n_min=3, n_max=5, cap_max=3, max_edges=7)
            dag = random_orientation(rng, net)
            rate = rng.randint(1, 6)
            ov = lex_min_overload(dag, rate)
            try:
                bf = brute_force_lex_min(dag, rate, grid=adaptive_grid(ov))
            except ValueError:
                continue
            assert lex_compare(list(bf.rates.values()), list(ov.rates.values())) >= 0
            done += 1

    def test_coarse_grid_dominates_production(self, rng):
        # any grid restricts the search space, so its minimum can only be
        # lexicographically above the true optimum
        done = 0
        while done < 30:
            net = random_network(rng, n_min=3, n_max=5, cap_max=3, max_edges=7)
            dag = random_orientation(rng, net)
            rate = rng.randint(1, 6)
            try:
                bf = brute_force_lex_min(dag, rate, grid=1)
            except ValueError:
                continue
            ov = lex_min_overload(dag, rate)
            assert lex_compare(list(bf.rates.values()), list(ov.rates.values())) >= 0
            done += 1
