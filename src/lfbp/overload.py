"""Fluid-model queue overload rates under a fixed orientation.

Given an orientation and an arrival rate, every feasible flow induces a
vector of per-node queue growth rates.  This module computes the unique
lexicographically minimal such vector (sorted-descending comparison), the
overloaded node set, and a grid-search oracle used to validate the production
algorithm on small instances.

The destination never buffers, so its rate is pinned to zero and its outgoing
links carry no fluid flow.

The vector comes from one parametric min-cut.  With surplus(S) the supply of
a node set S less the capacity of its links into the destination and into
the other nodes, the levels of the vector are the breakpoints of
g(tau) = max over S of surplus(S) - tau*|S|, whose maximal maximizers M(tau)
are nested and shrink as tau rises.  A super-source feeds each node its
supply and each node leaks tau plus its capacity into the destination to a
super-sink, so the min-cut is the total supply less g(tau).  One solve at
tau = 0 gives M(0); then for each pair A = M(lo) > B = M(hi) a solve where
the lines of A and B cross, tau = (surplus(A) - surplus(B)) / (|A| - |B|),
with B contracted into the super-source and all outside A into the
super-sink, either confirms A - B as one level at rate tau or splits the
pair at its maximal side C, whose surplus is read off the cut value.  That
is at most 2*d + 1 solves for d distinct rates, on one network per call.

The inducing flow is read off the same solves: links inside a level take the
flow of the solve that confirmed it (both of its cuts are tight there),
links between levels are full downwards and idle upwards, and rate-0 nodes
take theirs from the tau = 0 solve, spreading its leak over their links into
the destination.  Conservation must reproduce the rates exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import DagOrientation, InvariantViolation, Rational, as_rational, topological_order
from .flow import FlowAllocation, FlowNetwork

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class OverloadVector:
    """Queue growth rate per node (destination included, always 0) and a flow
    allocation that induces exactly these rates."""

    rates: dict[int, Rational]
    inducing_flow: FlowAllocation

    def sorted_desc(self) -> tuple:
        return tuple(sorted(self.rates.values(), reverse=True))

    def support(self) -> frozenset[int]:
        return frozenset(n for n, q in self.rates.items() if q > 0)

    def total(self) -> Rational:
        return sum(self.rates.values())


def lex_key(values: Iterable[Rational]) -> tuple:
    return tuple(sorted(values, reverse=True))


def lex_compare(u: Sequence[Rational], v: Sequence[Rational]) -> int:
    """Compare two vectors by their sorted-descending component sequences.

    Returns -1 (less), 0 (equal) or 1 (greater).
    """
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    ku, kv = lex_key(u), lex_key(v)
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


def _fluid_arcs(dag: DagOrientation) -> list[tuple[int, int, Rational]]:
    """Live directed edges carrying fluid flow: everything except links out of
    the destination (it absorbs and never forwards)."""
    dest = dag.net.dest
    return [(u, v, c) for u, v, c in dag.directed_edges() if u != dest]


def lex_min_overload(dag: DagOrientation, rate: Rational) -> OverloadVector:
    """The unique lexicographically smallest feasible overload vector, found
    by the breakpoint search of the module docstring."""
    rate = as_rational(rate)
    if rate < 0:
        raise ValueError("arrival rate must be nonnegative")
    net = dag.net
    src, dest = net.source, net.dest
    inner = sorted(n for n in net.nodes if n != dest)
    # The supply and every capacity as integers at one common scale, base.
    base = math.lcm(rate.denominator, *{c.denominator for c in net.capacity.values()})
    supply = rate.numerator * (base // rate.denominator)
    SRC, SINK = object(), object()
    aux = FlowNetwork(inner + [SRC, SINK])
    feed = {n: aux.pair(SRC, n) for n in inner}
    leak = {n: aux.pair(n, SINK) for n in inner}
    absorb = dict.fromkeys(inner, 0)
    out = {n: [] for n in inner}  # (arc id, head, capacity) of links between inner nodes
    links = []  # (tail, head, capacity, arc id or None) per live link, 0 out of dest
    for u, v, c in dag.directed_edges():
        c = 0 if u == dest else c.numerator * (base // c.denominator)
        k = None
        if v == dest:
            absorb[u] += c
        elif u != dest:
            k = aux.pair(u, v)
            out[u].append((k, v, c))
        links.append((u, v, c, k))
    zero = [0] * len(aux.head)

    def solve(tau, group, above):
        """Max of surplus(above | T) - surplus(above) - tau*|T| over T within
        ``group``, with ``above`` held on the source side and every other
        node on the sink side; returns the max-flow, the maximal such T and
        its gain surplus(above | T) - surplus(above)."""
        scale = math.lcm(base, tau.denominator)
        mult = scale // base
        fed = dict.fromkeys(group, 0)
        if src in group:
            fed[src] = supply
        drained = {n: absorb[n] for n in group}
        res = zero[:]
        for u in above:
            for k, v, c in out[u]:
                if v in group:
                    fed[v] += c
        for u in group:
            for k, v, c in out[u]:
                if v in group:
                    res[k] = c * mult
                elif v not in above:
                    drained[u] += c
        t = tau.numerator * (scale // tau.denominator)
        for n in group:
            res[feed[n]] = fed[n] * mult
            res[leak[n]] = drained[n] * mult + t
        result = aux.solve(res, SRC, SINK, scale)
        side = result.maximal_source_side() & group
        return result, side, Fraction(sum(fed.values()), base) - result.value + tau * len(side)

    rates: dict[int, Rational] = dict.fromkeys(net.nodes, 0)
    levels = []  # (rate, nodes, confirming solve) of each positive level
    flat, top, gain = solve(0, frozenset(inner), frozenset())
    stack = [(top, gain, frozenset(), 0)] if gain > 0 else []
    while stack:  # every split leaves two strictly smaller pairs
        a, surplus_a, b, surplus_b = stack.pop()
        tau = Fraction(surplus_a - surplus_b) / (len(a) - len(b))
        if tau == 0:
            continue  # the part of M(0) that stays at rate 0
        group = a - b
        result, side, gain = solve(tau, group, b)
        if side == group:
            levels.append((tau, group, result))
            continue
        if not side:
            raise InvariantViolation(f"no breakpoint between {len(b)} and {len(a)} nodes")
        c = b | side
        stack.append((a, surplus_a, c, surplus_b + gain))
        stack.append((c, surplus_b + gain, b, surplus_b))

    # Each node's links take their flow from the solve that settled its
    # level: the confirming solve of a positive level, else the tau = 0 one.
    levels.sort(key=lambda level: level[0])
    rank = dict.fromkeys(inner, 0)
    solved = dict.fromkeys(inner, flat)
    for i, (tau, group, result) in enumerate(levels, 1):
        for n in group:
            rates[n] = as_rational(tau)
            rank[n] = i
            solved[n] = result
    scale = math.lcm(base, *(tau.denominator for tau, _, _ in levels))
    up = scale // base
    # A rate-0 node spreads its tau = 0 leak flow over its links into the
    # destination; links between levels are full downwards, idle upwards.
    spare = {n: flat.arc_flow(leak[n]) * up for n in inner if not rank[n]}
    used = []
    delivered = 0
    for u, v, c, k in links:
        f = c * up
        if k is None:
            if u in spare:
                f = min(f, spare[u])
                spare[u] -= f
            delivered += f
        elif rank[u] < rank[v]:
            f = 0
        elif rank[u] == rank[v]:
            f = solved[u].arc_flow(k) * (scale // solved[u].scale)
        used.append(f)
    # The flow must deliver the rest of the rate and reproduce every rate
    # exactly via conservation, checked in scaled integers.
    if delivered != (rate - sum(rates.values())) * scale:
        raise InvariantViolation("overload rates admit no inducing flow")
    div = dict.fromkeys(net.nodes, 0)
    div[src] = -supply * up
    for (u, v, _, _), f in zip(links, used):
        div[u] += f
        div[v] -= f
    for n in inner:
        if -div[n] != rates[n] * scale:
            raise InvariantViolation(
                f"inducing flow mismatch at node {n}: {Fraction(-div[n], scale)} != {rates[n]}"
            )
    flow = {(u, v): _unscale(f, scale) for (u, v, _, _), f in zip(links, used)}
    return OverloadVector(rates=rates, inducing_flow=FlowAllocation(flow=flow, value=_unscale(delivered, scale)))


def _unscale(used: int, scale: int) -> Rational:
    """A flow times ``scale`` as the exact rational it stands for, an int when whole."""
    return used // scale if used % scale == 0 else Fraction(used, scale)


def overloaded_set(dag: DagOrientation, rate: Rational):
    """The smallest min-cut when the rate exceeds the orientation's max-flow,
    else None.  Its source side is exactly the set of overloaded nodes."""
    from .flow import smallest_min_cut

    cut = smallest_min_cut(dag)
    if as_rational(rate) <= cut.capacity:
        return None
    return cut


def brute_force_lex_min(
    dag: DagOrientation,
    rate: Rational,
    grid: Rational = 1,
    max_work: int = 5_000_000,
) -> OverloadVector:
    """Grid-search oracle: enumerate every flow allocation whose edge values
    are multiples of ``grid`` and keep the lexicographically smallest induced
    overload vector.

    Only valid on small instances; raises when the instance or the implied
    enumeration is too large, or when grid does not divide all capacities and
    the arrival rate.  Completeness caveat: the result is the minimum over the
    grid, which matches the true optimum only when the grid is fine enough.
    """
    net = dag.net
    if len(net.nodes) > 6:
        raise ValueError("instance too large: oracle limited to 6 nodes")
    grid = Fraction(grid)
    if grid <= 0:
        raise ValueError("grid step must be positive")

    def units(x) -> int:
        q = Fraction(x) / grid
        if q.denominator != 1:
            raise ValueError(f"{x} is not a multiple of grid step {grid}")
        return int(q)

    rate_u = units(rate)
    dest = net.dest
    arcs = _fluid_arcs(dag)
    pairs = [(u, v) for u, v, _ in arcs]
    order = topological_order(net.nodes, pairs)
    if order is None:
        raise ValueError("orientation is not acyclic")
    out_by_node: dict[int, list[tuple[int, int]]] = {n: [] for n in net.nodes}
    for u, v, c in arcs:
        out_by_node[u].append((v, units(c)))
    for n in out_by_node:
        out_by_node[n].sort()

    # Upfront work estimate: per-node split counts with throughflow <= rate.
    est = 1
    for n in order:
        if n == dest:
            continue
        est *= _split_count([c for _, c in out_by_node[n]], rate_u)
        if est > max_work:
            raise ValueError("instance too large: grid enumeration exceeds budget")

    node_seq = [n for n in order if n != dest]
    n_count = len(node_seq)
    best_key: tuple | None = None
    best_rates: dict[int, int] = {}
    best_flow: dict[tuple[int, int], int] = {}
    inflow = {n: 0 for n in net.nodes}
    q_units: dict[int, int] = {}
    flow_units: dict[tuple[int, int], int] = {}

    def descend(idx: int) -> None:
        nonlocal best_key, best_rates, best_flow
        if idx == n_count:
            key = tuple(sorted(((q * grid) for q in q_units.values()), reverse=True))
            key = key + (Fraction(0),)  # destination contributes a zero
            if best_key is None or key < best_key:
                best_key = key
                best_rates = dict(q_units)
                best_flow = dict(flow_units)
            return
        node = node_seq[idx]
        avail = inflow[node] + (rate_u if node == net.source else 0)
        outs = out_by_node[node]
        bound = None
        if best_key is not None:
            bound = best_key[0]

        def assign(e_idx: int, budget: int) -> None:
            if e_idx == len(outs):
                q = budget
                if bound is not None and q * grid > bound:
                    return
                q_units[node] = q
                descend(idx + 1)
                del q_units[node]
                return
            head, cap_u = outs[e_idx]
            top = cap_u if cap_u < budget else budget
            for f in range(top, -1, -1):
                inflow[head] += f
                flow_units[(node, head)] = f
                assign(e_idx + 1, budget - f)
                inflow[head] -= f
            del flow_units[(node, head)]

        assign(0, avail)

    descend(0)
    if best_key is None:
        raise InvariantViolation("oracle found no feasible allocation")
    rates = {n: as_rational(q * grid) for n, q in best_rates.items()}
    rates[dest] = 0
    flow = {}
    delivered: Rational = 0
    for u, v, c in dag.directed_edges():
        used = best_flow.get((u, v), 0) * grid
        flow[(u, v)] = as_rational(used)
        if v == dest and u != dest:
            delivered += used
    return OverloadVector(rates=rates, inducing_flow=FlowAllocation(flow=flow, value=as_rational(delivered)))


def _split_count(caps: list[int], budget: int) -> int:
    """Number of ways to pick per-edge sends within caps summing to <= budget."""
    counts = {0: 1}
    for cap in caps:
        nxt: dict[int, int] = {}
        for total, ways in counts.items():
            for f in range(0, cap + 1):
                if total + f > budget:
                    break
                nxt[total + f] = nxt.get(total + f, 0) + ways
        counts = nxt
    return sum(counts.values())
