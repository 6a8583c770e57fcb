"""Fluid-model queue overload rates under a fixed orientation.

Given an orientation and an arrival rate, every feasible flow induces a
vector of per-node queue growth rates.  This module computes the unique
lexicographically minimal such vector (sorted-descending comparison), the
overloaded node set, and a grid-search oracle used to validate the production
algorithm on small instances.

The destination never buffers, so its rate is pinned to zero and its outgoing
links carry no fluid flow.

The vector is found by peeling, densest set first.  Each density guess tau
is one min-cut of an auxiliary network: a super-source feeds each node its
supply, each node leaks tau plus its capacity into the destination to a
super-sink, and the internal links are kept.  That network is built once
per ``lex_min_overload`` call.  Each peel writes the supplies and the
surviving links into one integer capacity vector, and each guess only
rescales it and rewrites the leak arcs; peeled nodes stay in the network
with no capacity and are cut out of the answer.  The cut value is exactly
surplus(S) - tau*|S| for the maximal maximizing set S, so the next guess,
S's mean surplus, is tau plus that gap over |S| (a Newton step on exact
rationals).  The inducing flow is read off its max-flow in scaled integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graph import DagOrientation, InvariantViolation, Rational, as_rational, topological_order
from .flow import FlowAllocation, FlowNetwork, _solve

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


def _lex_min_rates(dag: DagOrientation, rate: Rational) -> dict[int, Rational]:
    """Water-filling: repeatedly peel the maximal set of maximum mean surplus.

    Each peeled set is forced to a common growth rate (the mean surplus
    density); its outgoing links saturate, feeding the remaining nodes as
    extra supply, and levels strictly decrease until all surplus is zero.
    The surplus of S is supply(S) - absorb(S) - cutcap(S); the module
    docstring describes the auxiliary min-cut network and the Newton steps.
    """
    net = dag.net
    dest = net.dest
    rates: dict[int, Rational] = {n: 0 for n in net.nodes}
    active = set(net.nodes) - {dest}
    supply: dict[int, Rational] = {n: 0 for n in active}
    supply[net.source] = rate
    absorb: dict[int, Rational] = {n: 0 for n in active}
    arcs = []
    for u, v, c in _fluid_arcs(dag):
        if v == dest:
            absorb[u] += c
        else:
            arcs.append((u, v, c))

    SRC, SINK = object(), object()
    ordered = sorted(active)
    aux = FlowNetwork(ordered + [SRC, SINK])
    feed = {n: aux.pair(SRC, n) for n in ordered}
    leak = {n: aux.pair(n, SINK) for n in ordered}
    arcs = [(aux.pair(u, v), u, v, c) for u, v, c in arcs]
    zero = [0] * len(aux.head)

    while active:
        # Base capacities of this peel at the scale of its denominators.
        base_scale = math.lcm(
            *{supply[n].denominator for n in active},
            *{absorb[n].denominator for n in active},
            *{c.denominator for _, _, _, c in arcs},
        )
        base = zero[:]
        for n in active:
            base[feed[n]] = supply[n].numerator * (base_scale // supply[n].denominator)
        for k, _, _, c in arcs:
            base[k] += c.numerator * (base_scale // c.denominator)
        leaks = [(leak[n], absorb[n].numerator * (base_scale // absorb[n].denominator)) for n in active]
        total_supply = sum(supply[n] for n in active)

        def max_surplus_set(tau):
            """Max of surplus(S) - tau*|S| over S within the active set, and
            the maximal S attaining it: total supply less the min-cut, and
            the active part of the maximal min-cut source side."""
            scale = math.lcm(base_scale, tau.denominator)
            mult = scale // base_scale
            res = base[:] if mult == 1 else [c * mult for c in base]
            tau_scaled = tau.numerator * (scale // tau.denominator)
            for k, a in leaks:
                res[k] = a * mult + tau_scaled
            result = aux.solve(res, SRC, SINK, scale)
            return total_supply - result.value, result.maximal_source_side() & active

        gap, top = max_surplus_set(0)
        if gap <= 0:
            break
        # Newton steps: the gap is surplus(S) - tau*|S| for the returned S,
        # so tau + gap/|S| is that set's mean surplus density.
        tau: Rational = 0
        guard = len(active) + 2
        while gap > 0 and top:
            tau += Fraction(gap) / len(top)
            guard -= 1
            if guard < 0:
                raise InvariantViolation("density search failed to converge")
            gap, top = max_surplus_set(tau)
        if not top or tau <= 0:
            raise InvariantViolation("positive surplus but empty peel set")
        for n in top:
            rates[n] = as_rational(tau)
        # Saturated outgoing links become supply for the rest; links into the
        # peeled set carry nothing and disappear with it.
        for _, u, v, c in arcs:
            if u in top and v not in top:
                supply[v] += c
        arcs = [a for a in arcs if a[1] not in top and a[2] not in top]
        active -= top
    return rates


def _unscale(used: int, scale: int) -> Rational:
    """A flow times ``scale`` as the exact rational it stands for, an int when whole."""
    return used // scale if used % scale == 0 else Fraction(used, scale)


def _inducing_flow(dag: DagOrientation, rate: Rational, rates: Mapping[int, Rational]) -> FlowAllocation:
    """Recover a feasible flow whose conservation residues equal the rates."""
    net = dag.net
    src, dest = net.source, net.dest
    arcs = _fluid_arcs(dag)
    SRC, SINK = object(), object()
    aux = []
    needed: Rational = 0
    for n in net.nodes:
        if n == dest:
            continue
        balance = (rate if n == src else 0) - rates[n]  # net amount n must push out
        if balance > 0:
            aux.append((SRC, n, balance))
            needed += balance
        elif balance < 0:
            aux.append((n, SINK, -balance))
    aux.append((dest, SINK, needed))
    aux.extend(arcs)
    result = _solve(list(net.nodes) + [SRC, SINK], aux, SRC, SINK)
    if result.value != needed:
        raise InvariantViolation("overload rates admit no inducing flow")
    # Flows stay multiplied by the kernel's scale until they are reported.
    scale = result.scale
    used: dict[tuple[int, int], int] = {}
    delivered = 0
    for u, v, _ in dag.directed_edges():
        used[(u, v)] = 0 if u == dest else result.scaled_flow(u, v)
        if v == dest:
            delivered += used[(u, v)]
    # The extracted flow must reproduce the rates exactly via conservation.
    div: dict[int, int] = {n: 0 for n in net.nodes}
    for (u, v), f in used.items():
        div[u] += f
        div[v] -= f
    for n in net.nodes:
        if n == dest:
            continue
        induced = (rate * scale if n == src else 0) - div[n]
        if induced != rates[n] * scale:
            raise InvariantViolation(
                f"inducing flow mismatch at node {n}: {Fraction(induced) / scale} != {rates[n]}"
            )
    flow = {edge: _unscale(f, scale) for edge, f in used.items()}
    return FlowAllocation(flow=flow, value=_unscale(delivered, scale))


def lex_min_overload(dag: DagOrientation, rate: Rational) -> OverloadVector:
    """The unique lexicographically smallest feasible overload vector."""
    rate = as_rational(rate)
    if rate < 0:
        raise ValueError("arrival rate must be nonnegative")
    rates = _lex_min_rates(dag, rate)
    return OverloadVector(rates=rates, inducing_flow=_inducing_flow(dag, rate, rates))


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
