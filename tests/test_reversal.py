"""Link-reversal steps, convergence traces, and iteration accounting."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfbp.graph import (
    InvariantViolation,
    Network,
    apply_topology_event,
    initial_dag,
    orient_by_ranking,
    orient_explicit,
)
from lfbp.flow import ReversalFlow, max_flow, max_flow_undirected, smallest_min_cut
from lfbp.overload import lex_min_overload
from lfbp.reversal import converge, default_max_iters, reversal_step, reverse_toward

from conftest import random_network, random_orientation, reference_converge, signature, write_csv
from oracles import check_state_consistency, exhaustive_delta, is_acyclic, lex_compare


def side_edge_instance():
    """One backward edge from an off-path node; reversing it doubles the flow."""
    net = Network.build([0, 1, 2, 3], [(0, 1, 2), (1, 3, 1), (0, 2, 1), (2, 3, 1)], 0, 3)
    return orient_explicit(net, [(0, 1), (1, 3), (2, 0), (2, 3)])


def line_with_wrong_links(n):
    net = Network.build(range(n), [(i, i + 1, 1) for i in range(n - 1)], 0, n - 1)
    return orient_explicit(net, [(i + 1, i) for i in range(n - 1)])


class TestReversalStep:
    def test_supported_rate_is_noop(self, rng):
        for _ in range(20):
            dag = random_orientation(rng, random_network(rng))
            fk = max_flow(dag).value
            out, flips, cut = reversal_step(dag, fk)
            assert out is dag and flips == () and cut is None

    def test_single_backward_edge(self):
        dag = side_edge_instance()
        assert max_flow(dag).value == 1
        out, flips, cut = reversal_step(dag, 3)
        assert cut.source_side == frozenset({0, 1})
        assert flips == ((2, 0),)
        assert max_flow(out).value == 2
        assert is_acyclic(out)
        check_state_consistency(out)

    def test_boundary_points_outward_after_step(self, rng):
        # after a reversal, every edge on the overloaded boundary leaves it
        seen = 0
        while seen < 40:
            dag = random_orientation(rng, random_network(rng, n_max=9))
            rate = max_flow(dag).value + 1
            out, flips, cut = reversal_step(dag, rate)
            if cut is None or not flips:
                continue
            inside = cut.source_side
            for u, v, _ in out.directed_edges():
                assert not (u not in inside and v in inside)
            seen += 1

    def test_acyclic_after_every_step(self, rng):
        for _ in range(60):
            dag = random_orientation(rng, random_network(rng, n_max=10))
            out, _, _ = reversal_step(dag, rng.randint(1, 12))
            assert is_acyclic(out)

    def test_zero_capacity_entering_edge_is_terminal(self):
        # regression: the only edge entering the overloaded side has capacity
        # zero, so nothing can improve; flipping that dead wire used to churn
        # the orientation without lowering the overload vector
        net = Network.build(
            range(5),
            [(0, 2, 0), (1, 2, 5), (1, 3, 5), (2, 3, 0), (2, 4, 5), (3, 4, 9)],
            0,
            4,
        )
        dag = orient_explicit(net, [(2, 0), (1, 2), (3, 1), (3, 2), (4, 2), (4, 3)])
        assert max_flow(dag).value == 0 == max_flow_undirected(net)
        out, flips, cut = reversal_step(dag, 2)
        assert out is dag and flips == ()
        assert cut is not None and cut.source_side == frozenset({0})
        trace = converge(dag, 2)
        assert trace.iterations == 0 and len(trace.entries) == 1

    def test_zero_capacity_edges_mixed_with_usable_ones(self, rng):
        # zero-capacity edges may ride along with genuine reversals; the
        # improvement guarantees must survive them
        for _ in range(60):
            n = rng.randint(3, 8)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        edges.append((i, j, rng.choice([0, 0, 1, 2, 3])))
            if not edges:
                continue
            net = Network.build(range(n), edges, 0, n - 1)
            dag = random_orientation(rng, net)
            rate = rng.randint(1, 8)
            before = lex_min_overload(dag, rate)
            out, flips, cut = reversal_step(dag, rate)
            assert is_acyclic(out)
            if flips:
                after = lex_min_overload(out, rate)
                assert lex_compare(
                    list(after.rates.values()), list(before.rates.values())
                ) == -1
            elif cut is not None:
                assert max_flow(dag).value == max_flow_undirected(net)


class TestReverseToward:
    def test_source_free_set_never_raises_max_flow(self, rng):
        # the lemma behind the protocol's reversal gate: after reversing
        # toward a set X without source or destination no link enters X, so
        # no flow crosses X; max-flow can only fall, and stays put when no
        # link leaves X (a dead end, through which no flow passed before)
        checked = dead_ends = 0
        while checked < 400 or dead_ends < 60:
            net = random_network(rng, n_min=4, n_max=9, cap_max=5)
            dag = random_orientation(rng, net)
            inner = sorted(net.nodes - {net.source, net.dest})
            x = {node for node in inner if rng.random() < 0.4}
            if not x:
                continue
            before = max_flow(dag).value
            after = max_flow(reverse_toward(dag, x)[0]).value
            assert after <= before
            if not any(u in x and v not in x for u, v, _ in dag.directed_edges()):
                assert after == before
                dead_ends += 1
            checked += 1


class TestConverge:
    def test_already_supporting_gives_single_entry(self, rng):
        dag = random_orientation(rng, random_network(rng))
        trace = converge(dag, 0)
        assert len(trace.entries) == 1
        assert trace.iterations == 0
        assert trace.final is dag

    def test_line_network_theta_n(self):
        for n in (3, 5, 8, 12):
            trace = converge(line_with_wrong_links(n), 1)
            assert trace.iterations == n - 1
            assert max_flow(trace.final).value == 1

    def test_reaches_min_of_rate_and_network_flow(self, rng):
        for _ in range(40):
            net = random_network(rng, n_max=9)
            dag = random_orientation(rng, net)
            rate = rng.randint(1, 12)
            trace = converge(dag, rate, record_overload=False)
            assert max_flow(trace.final).value >= min(rate, max_flow_undirected(net))

    def test_overload_strictly_lex_decreases(self, rng):
        seen = 0
        while seen < 25:
            dag = random_orientation(rng, random_network(rng, n_max=8))
            rate = rng.randint(2, 10)
            trace = converge(dag, rate, record_overload=True)
            steps = [e for e in trace.entries if e.overload is not None]
            if len(steps) < 2:
                continue
            for a, b in zip(steps, steps[1:]):
                if a.reversed_edges:
                    assert (
                        lex_compare(
                            list(b.overload.rates.values()), list(a.overload.rates.values())
                        )
                        == -1
                    )
            seen += 1

    def test_cut_monotonicity_per_step(self, rng):
        seen = 0
        while seen < 25:
            dag = random_orientation(rng, random_network(rng, n_max=9))
            rate = rng.randint(2, 12)
            trace = converge(dag, rate, record_overload=False)
            if trace.iterations < 2:
                continue
            entries = trace.entries
            for a, b in zip(entries, entries[1:]):
                if not a.reversed_edges or a.overloaded is None or b.overloaded is None:
                    continue
                assert b.max_flow_value > a.max_flow_value or (
                    b.max_flow_value == a.max_flow_value
                    and len(b.overloaded) > len(a.overloaded)
                )
            seen += 1

    def test_no_repeated_orientation(self, rng):
        for _ in range(40):
            dag = random_orientation(rng, random_network(rng, n_max=9))
            trace = converge(dag, rng.randint(1, 12), record_overload=False)
            signatures = [signature(e.dag) for e in trace.entries]
            assert len(signatures) == len(set(signatures))

    def test_infeasible_rate_reaches_network_max_flow(self, rng):
        for _ in range(25):
            net = random_network(rng, n_max=8)
            dag = random_orientation(rng, net)
            fmax = max_flow_undirected(net)
            trace = converge(dag, fmax + 5, record_overload=False)
            assert max_flow(trace.final).value == fmax

    def test_iteration_bound_from_cut_granularity(self, rng):
        for _ in range(30):
            net = random_network(rng, n_min=4, n_max=7, cap_max=4, max_edges=12)
            dag = random_orientation(rng, net)
            fmax = max_flow_undirected(net)
            if fmax == 0:
                continue
            delta = exhaustive_delta(net)
            bound = math.ceil(Fraction(len(net.nodes)) * Fraction(fmax) / delta)
            trace = converge(dag, fmax, max_iters=bound, record_overload=False)
            assert trace.iterations <= bound

    def test_unit_capacity_bound(self, rng):
        for _ in range(30):
            net = random_network(rng, n_min=4, n_max=9, cap_max=1)
            dag = random_orientation(rng, net)
            fmax = max_flow_undirected(net)
            trace = converge(dag, fmax, record_overload=False)
            assert trace.iterations <= len(net.nodes) * len(net.capacity)

    def test_exhausted_budget_raises(self):
        dag = line_with_wrong_links(6)
        with pytest.raises(InvariantViolation, match="converge"):
            converge(dag, 1, max_iters=2)

    def test_default_budget_is_generous(self, rng):
        for _ in range(10):
            net = random_network(rng, n_max=7)
            dag = random_orientation(rng, net)
            assert default_max_iters(dag) >= 1

    def test_supplied_network_max_flow_gives_same_budget(self, rng):
        for _ in range(20):
            net = random_network(rng, n_max=9)
            dag = random_orientation(rng, net)
            fmax = max_flow_undirected(net)
            assert default_max_iters(dag, fmax) == default_max_iters(dag)


CAPACITY = st.one_of(
    st.just(0),
    st.integers(1, 6),
    st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
)


@st.composite
def reversal_cases(draw):
    """An orientation with zero, whole and fractional capacities, one dead
    link in about 30% of cases, and a rate around the network's max-flow."""
    n = draw(st.integers(3, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=16, unique=True))
    net = Network.build(range(n), [(i, j, draw(CAPACITY)) for i, j in edges], 0, n - 1)
    dag = orient_by_ranking(net, dict(enumerate(draw(st.permutations(range(n))))))
    if draw(st.integers(0, 9)) < 3:
        dag = apply_topology_event(dag, "remove", draw(st.sampled_from(sorted(net.capacity))))
    fmax = max_flow_undirected(net)
    rate = draw(st.sampled_from([0, Fraction(7, 2), fmax / Fraction(2), fmax, fmax + Fraction(1, 3), 3 * fmax + 5]))
    return dag, rate, draw(st.booleans())


def fields(run):
    """Every field of every trace entry ``run`` returns, with its type, or
    the error it raises."""
    try:
        entries = run()
    except InvariantViolation as exc:
        return repr(exc)
    return [{name: (type(v), v) for name, v in vars(e).items()} for e in entries]


def dead_fraction_case():
    # Whole live capacities next to a fractional dead link: the live links
    # alone set the scale, so every cut value stays an int.
    net = Network.build(range(4), [(0, 1, 2), (1, 3, 3), (0, 2, Fraction(1, 2)), (2, 3, 1), (1, 2, 1)], 0, 3)
    dag = orient_by_ranking(net, {2: 0, 1: 1, 0: 2, 3: 3})
    return apply_topology_event(dag, "remove", (0, 2)), 3, False


def zero_capacity_flip_case():
    # The links 3 -> 1 and 4 -> 1 enter the first cut's source side {0, 1};
    # the zero-capacity one is flipped with it but has no arc pair.
    net = Network.build(range(5), [(0, 1, 3), (1, 3, 2), (1, 4, 0), (3, 4, 2), (0, 2, 1), (2, 4, 1)], 0, 4)
    return orient_explicit(net, [(0, 1), (3, 1), (4, 1), (3, 4), (0, 2), (2, 4)]), 3, True


class TestWarmConverge:
    """``converge`` keeps one max-flow warm across its steps; every trace
    entry, types included, equals the earlier cold-solving ``converge``."""

    @given(reversal_cases())
    @example(dead_fraction_case())
    @example(zero_capacity_flip_case())
    @settings(max_examples=1000, deadline=None)
    def test_matches_cold_reference(self, case):
        dag, rate, record = case
        got = fields(lambda: converge(dag, rate, record_overload=record).entries)
        want = fields(lambda: reference_converge(dag, rate, record_overload=record).entries)
        assert got == want

    def test_examples_exercise_their_edge_cases(self):
        dag, rate, record = dead_fraction_case()
        trace = converge(dag, rate, record_overload=record)
        assert trace.iterations >= 1
        assert all(type(e.max_flow_value) is int for e in trace.entries)
        dag, rate, record = zero_capacity_flip_case()
        trace = converge(dag, rate, record_overload=record)
        assert (4, 1) in trace.entries[0].reversed_edges
        assert dag.net.capacity[(1, 4)] == 0

    def test_flipping_a_link_that_carries_flow_raises(self):
        # 0 -> 1 -> 2 carries one unit; the smallest min-cut side is {0}, so
        # reversing toward {1} flips 0 -> 1 while it carries that unit.
        net = Network.build(range(3), [(0, 1, 1), (1, 2, 1)], 0, 2)
        dag = orient_explicit(net, [(0, 1), (1, 2)])
        flow = ReversalFlow(dag)
        assert flow.cut().source_side == frozenset({0})
        _, flips = reverse_toward(dag, {1})
        assert flips == ((0, 1),)
        with pytest.raises(InvariantViolation, match="carries flow"):
            flow.reverse(flips)


class TestTrace:
    def test_max_flow_nondecreasing(self, rng):
        for _ in range(25):
            dag = random_orientation(rng, random_network(rng, n_max=9))
            trace = converge(dag, rng.randint(1, 10), record_overload=False)
            flows = [e.max_flow_value for e in trace.entries]
            assert flows == sorted(flows)

    def test_csv_export(self, tmp_path):
        trace = converge(line_with_wrong_links(4), 1)
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,max_flow,overloaded_size,edges_reversed,reversed"
        assert len(lines) == len(trace.entries) + 1

    def test_support_matches_recorded_cut(self, rng):
        seen = 0
        while seen < 15:
            dag = random_orientation(rng, random_network(rng, n_max=7))
            trace = converge(dag, rng.randint(2, 9), record_overload=True)
            for e in trace.entries:
                if e.overloaded is not None and e.overload is not None:
                    assert e.overload.support() == e.overloaded
                    seen += 1
