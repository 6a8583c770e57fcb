"""Shared instance generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: min cuts by
exhaustive subset enumeration, max-flow by grid enumeration of feasible
flows.  They are slow and only meant for small instances.  The slot engine's
earlier per-link forwarding step and term-by-term Poisson draw are kept here
as references for the compiled plans and the CDF table that replaced them.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from lfbp import Network, orient_by_ranking
from lfbp.flow import cut_capacity


def random_network(rng: random.Random, n_min=3, n_max=6, cap_max=4, p=0.5, max_edges=None):
    """Random undirected network on nodes 0..n-1 with source 0, dest n-1."""
    while True:
        n = rng.randint(n_min, n_max)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.randint(1, cap_max)))
        if not edges:
            continue
        if max_edges is not None and len(edges) > max_edges:
            continue
        touched = {v for i, j, _ in edges for v in (i, j)}
        if 0 in touched and n - 1 in touched:
            return Network.build(range(n), edges, 0, n - 1)


def random_orientation(rng: random.Random, net: Network):
    """Uniformly random acyclic orientation via a shuffled node ranking."""
    nodes = sorted(net.nodes)
    ranking = list(range(len(nodes)))
    rng.shuffle(ranking)
    return orient_by_ranking(net, {node: ranking[i] for i, node in enumerate(nodes)})


def exhaustive_smallest_min_cut(dag):
    """Enumerate every source-side subset; keep min capacity, then min size.

    Only usable on small node counts; this is the Definition-style oracle the
    residual-reachability implementation is checked against.
    """
    net = dag.net
    others = sorted(net.nodes - {net.source, net.dest})
    best_side = None
    best_cap = None
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            side = frozenset({net.source, *combo})
            cap = cut_capacity(dag, side, net.nodes - side)
            if (
                best_cap is None
                or cap < best_cap
                or (cap == best_cap and len(side) < len(best_side))
            ):
                best_cap = cap
                best_side = side
    return best_side, best_cap


def brute_force_max_flow(dag, src=None, dst=None, cap_limit=200_000):
    """Max feasible integral flow by direct enumeration over the live DAG.

    Walks nodes in topological order assigning integer flows per out-edge,
    subject to conservation (no node ships more than it received), and keeps
    the best terminal delivery.  Independent of the residual-graph solver.
    """
    from lfbp import topological_order

    net = dag.net
    src = net.source if src is None else src
    dst = net.dest if dst is None else dst
    arcs = [(u, v, int(c)) for u, v, c in dag.directed_edges() if u != dst]
    order = topological_order(net.nodes, [(u, v) for u, v, _ in arcs])
    assert order is not None
    outs = {n: [] for n in net.nodes}
    for u, v, c in arcs:
        outs[u].append((v, c))
    seq = [n for n in order if n != dst]
    total_cap = sum(c for _, _, c in arcs)
    inflow = {n: 0 for n in net.nodes}
    best = 0
    count = 0

    def descend(idx):
        nonlocal best, count
        count += 1
        if count > cap_limit:
            raise RuntimeError("oracle instance too large")
        if idx == len(seq):
            best = max(best, inflow[dst])
            return
        node = seq[idx]
        avail = inflow[node] + (total_cap if node == src else 0)

        def assign(e_idx, budget):
            if e_idx == len(outs[node]):
                descend(idx + 1)
                return
            head, cap = outs[node][e_idx]
            for f in range(min(cap, budget), -1, -1):
                inflow[head] += f
                assign(e_idx + 1, budget - f)
                inflow[head] -= f

        assign(0, avail)

    descend(0)
    return best


def reference_edge_plan(state):
    """Per-edge forwarding options ``(cap, ((y, tail, head), ...))``, ``None``
    for a dead link: the engine's earlier per-slot plan, rebuilt from the
    state's live mask, policy and orientations."""
    edge_plan = [None] * state.m
    ncom = len(state.commodities)
    for e_idx in range(state.m):
        if not state.live_mask[e_idx]:
            edge_plan[e_idx] = None
            continue
        a, b = state.edge_list[e_idx]
        ia, ib = state.idx[a], state.idx[b]
        cap = state.cap_int[e_idx]
        options = []
        if state.policy == "bp":
            for y in range(ncom):
                options.append((y, ia, ib))
                options.append((y, ib, ia))
        else:
            edge = state.edge_list[e_idx]
            for y, dag in enumerate(state.dags):
                head = dag.heads.get(edge)
                if head is None:
                    continue
                tail = edge[0] if edge[1] == head else edge[1]
                options.append((y, state.idx[tail], state.idx[head]))
        edge_plan[e_idx] = (cap, tuple(options))
    return edge_plan


def reference_bp_step(state):
    """The engine's earlier backpressure round: snapshot every queue vector,
    pick each live link's winner, then serve each tail's winners sorted by
    descending differential."""
    edge_plan = reference_edge_plan(state)
    queues = state.queues
    snaps = [q.copy() for q in queues]
    node_of = state.node_of
    sends_by_tail: dict[int, list] = {}
    for e_idx in state.live_order:
        cap, options = edge_plan[e_idx]
        best_d = 0
        best = None
        for y, u, v in options:
            d = snaps[y][u] - snaps[y][v]
            if d > best_d:
                best_d = d
                best = (y, u, v)
        if best is None:
            continue
        y, u, v = best
        sends_by_tail.setdefault(u, []).append((-best_d, node_of[v], y, v, cap))
    dst_idx = state.dst_idx
    delivered = state.delivered
    for u in sorted(sends_by_tail):
        plans = sends_by_tail[u]
        plans.sort()
        avail: dict[int, int] = {}
        for _negd, _vid, y, v, cap in plans:
            a = avail.get(y)
            if a is None:
                a = snaps[y][u]
            send = cap if cap < a else a
            if send <= 0:
                avail[y] = a
                continue
            avail[y] = a - send
            queues[y][u] -= send
            if v == dst_idx[y]:
                delivered[y] += send
                state.backlog_now -= send
            else:
                queues[y][v] += send
    return state


def reference_poisson_draw(rng: random.Random, mean: float) -> int:
    """The engine's earlier Poisson draw: walk the CDF term by term."""
    u = rng.random()
    if mean <= 0.0:
        return 0
    p = math.exp(-mean)
    c = p
    k = 0
    while u > c:
        k += 1
        p *= mean / k
        c += p
        if k > 100_000:  # numerically unreachable for desk-scale means
            break
    return k


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
