"""Fluid-model queue overload rates under a fixed orientation.

Given an orientation and an arrival rate, every feasible flow induces a
vector of per-node queue growth rates.  This module computes the unique
lexicographically minimal such vector (sorted-descending comparison).

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

from .graph import DagOrientation, InvariantViolation, Rational, as_rational
from .flow import FlowAllocation, FlowNetwork


@dataclass(frozen=True)
class OverloadVector:
    """Queue growth rate per node (destination included, always 0) and a flow
    allocation that induces exactly these rates."""

    rates: dict[int, Rational]
    inducing_flow: FlowAllocation

    def support(self) -> frozenset[int]:
        return frozenset(n for n, q in self.rates.items() if q > 0)

    def total(self) -> Rational:
        return sum(self.rates.values())


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
    index, head, adj = aux.index, aux.head, aux.adj
    m = len(inner)
    # Arc 2i feeds inner node i from the super-source (index m), arc 2(m + i)
    # leaks it into the super-sink (m + 1); the links between inner nodes follow.
    for i in range(m):
        head += (i, m)
        adj[i] += (2 * i + 1, 2 * (m + i))
    for i in range(m):
        head += (m + 1, i)
    adj[m] += range(0, 2 * m, 2)
    adj[m + 1] += range(2 * m + 1, 4 * m, 2)
    feed = {n: 2 * i for i, n in enumerate(inner)}
    leak = {n: k + 2 * m for n, k in feed.items()}
    absorb = dict.fromkeys(inner, 0)
    out = {n: [] for n in inner}  # (arc id, head, capacity) of links between inner nodes
    links = []  # (tail, head, capacity, arc id or None) per live link, 0 out of dest
    for u, v, c in dag.directed_edges():
        c = 0 if u == dest else c.numerator * (base // c.denominator)
        k = None
        if v == dest:
            absorb[u] += c
        elif u != dest:
            k = len(head)
            iu, iv = index[u], index[v]
            head += (iv, iu)
            adj[iu].append(k)
            adj[iv].append(k + 1)
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
