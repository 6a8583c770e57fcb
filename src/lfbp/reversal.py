"""Oracle-driven link reversal: flip links pointing into the overloaded set.

One step reverses every live link that goes from a non-overloaded node into
the overloaded set (the smallest min-cut source side); iterating yields a
sequence of strictly improving orientations that terminates at one supporting
the offered rate, or at the network's own max-flow when the rate is
infeasible.  ``converge`` solves one max-flow per call and keeps it warm
across its steps (``flow.ReversalFlow``): the flipped links carry no flow.
``optimal_dag`` is the throughput-optimal orientation that this iteration
reaches from the ID order at the network's undirected max-flow.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .graph import (
    DagOrientation,
    InvariantViolation,
    Network,
    Rational,
    Value,
    as_rational,
    edge_key,
    initial_dag,
)
from .flow import CutPartition, ReversalFlow, delta_bound, max_flow_undirected, smallest_min_cut
from .overload import OverloadVector, lex_min_overload


class TraceEntry(Value):
    """One visited orientation; ``reversed_edges`` are pre-reversal (tail, head)."""

    __slots__ = ("dag", "max_flow_value", "overloaded", "reversed_edges", "overload")

    def __init__(self, dag: DagOrientation, max_flow_value: Rational, overloaded: frozenset[int] | None,
                 reversed_edges: tuple[tuple[int, int], ...], overload: OverloadVector | None = None):
        self._set(dag, max_flow_value, overloaded, reversed_edges, overload)


class ReversalTrace(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: list[TraceEntry]):
        self._set(entries)

    @property
    def final(self) -> DagOrientation:
        return self.entries[-1].dag

    @property
    def iterations(self) -> int:
        """Number of steps that actually reversed links."""
        return sum(1 for e in self.entries if e.reversed_edges)


def reverse_toward(dag: DagOrientation, overloaded: Iterable[int]):
    """Reverse all live links entering ``overloaded`` from outside by moving
    the overloaded nodes below all others in the node order, each side
    keeping its own order.  Returns (new dag, reversed (tail, head) pairs);
    when no link enters the set, the input comes back untouched.

    The links to flip are read off the old order; the new order flips
    exactly those.  A boundary link now runs from the set (low) to outside
    (high), and the links within either side keep their direction, so
    acyclicity survives for any node set.
    """
    overloaded, rank = set(overloaded), dag.states
    flips = []
    for i, j in dag.live:
        if i in overloaded:
            if j not in overloaded and rank[j] < rank[i]:
                flips.append((j, i))
        elif j in overloaded and rank[i] < rank[j]:
            flips.append((i, j))
    if not flips:
        return dag, ()
    order = sorted(dag.states, key=dag.states.__getitem__)
    order = [n for n in order if n in overloaded] + [n for n in order if n not in overloaded]
    states = {n: pos for pos, n in enumerate(order)}
    return DagOrientation(dag.net, dag.live, states), tuple(sorted(flips))


def reversal_step(dag: DagOrientation, rate: Rational):
    """One link-reversal iteration against the smallest min-cut.

    Returns (dag', reversed edges, cut).  When the rate is already supported
    the input comes back untouched with cut None; when no usable link
    qualifies for reversal the input comes back with the cut attached --
    in that case the orientation already achieves the network max-flow.

    A link counts as usable only with positive capacity: if every edge
    entering the overloaded side is zero-capacity, the undirected and
    directed cut values coincide, so nothing can improve and flipping dead
    wires would only churn the orientation without progress.
    """
    return _step(dag, rate, smallest_min_cut(dag))


def _step(dag: DagOrientation, rate: Rational, cut: CutPartition):
    """``reversal_step`` against ``cut``, the smallest min-cut of ``dag``."""
    if as_rational(rate) <= cut.capacity:
        return dag, (), None
    new_dag, flips = reverse_toward(dag, cut.source_side)
    if not any(dag.net.capacity[edge_key(*flip)] > 0 for flip in flips):
        return dag, (), cut
    return new_dag, flips, cut


def default_max_iters(dag: DagOrientation, fmax: Rational | None = None) -> int:
    """Iteration budget: ceil(|N| f_max / delta) plus |N| slack.

    The cut-granularity bound covers the iterations needed to reach a
    max-flow-achieving orientation; an infeasible rate can then grow the
    overloaded side for up to |N| further reversals before no usable link
    remains.  ``fmax`` is the network's undirected max-flow, computed here
    when the caller does not already hold it.
    """
    n = len(dag.net.nodes)
    if fmax is None:
        fmax = max_flow_undirected(dag.net)
    if fmax == 0:
        return n
    return math.ceil(Fraction(n) * Fraction(fmax) / delta_bound(dag.net)) + n


def converge(
    dag0: DagOrientation,
    rate: Rational,
    max_iters: int | None = None,
    record_overload: bool = False,
) -> ReversalTrace:
    """Iterate reversal steps until the orientation supports the rate or no
    link qualifies.  The trace keeps one entry per visited orientation, each
    with its ``lex_min_overload`` vector when ``record_overload`` is set."""
    if max_iters is None:
        max_iters = default_max_iters(dag0)
    entries: list[TraceEntry] = []
    dag = dag0
    flow = ReversalFlow(dag0)
    for _ in range(max_iters + 1):
        cut = flow.cut()
        overload = lex_min_overload(dag, rate) if record_overload else None
        new_dag, flips, over = _step(dag, rate, cut)
        overloaded = None if over is None else over.source_side
        entries.append(TraceEntry(dag, cut.capacity, overloaded, flips, overload))
        if not flips:
            # The rate is supported, or nothing useful is left to reverse: the
            # orientation meets the network max-flow and the rest is infeasible.
            return ReversalTrace(entries)
        flow.reverse(flips)
        dag = new_dag
    raise InvariantViolation(
        f"link reversal did not converge within {max_iters} iterations"
    )


def optimal_dag(net: Network) -> DagOrientation:
    """An orientation whose max-flow matches the undirected max-flow: the one
    link reversal reaches from the ID order at that rate."""
    dag, fmax = initial_dag(net), max_flow_undirected(net)
    return converge(dag, fmax, default_max_iters(dag, fmax)).final
