"""Frozen networkx min-fill order: the oracle for the dict-based one.

This is :func:`repro.maxent.elimination.min_fill_order` as it ran while
the library still built its interaction graph with ``networkx``.  It is
kept verbatim, test-only, in the role ``dense_ipf.py`` plays for the fit:
the library's order must equal this one exactly.  Do not optimize it.
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx

from repro.maxent.elimination import Factor


def nx_min_fill_order(
    factors: Sequence[Factor], eliminate: Sequence[str]
) -> list[str]:
    """Min-fill elimination order over the factors' interaction graph.

    Greedy: repeatedly eliminate the attribute whose elimination adds the
    fewest fill edges among its not-yet-connected neighbours.
    """
    graph = nx.Graph()
    graph.add_nodes_from(eliminate)
    for factor in factors:
        present = [n for n in factor.names if n in set(eliminate)]
        for i, first in enumerate(present):
            for second in present[i + 1 :]:
                graph.add_edge(first, second)
    remaining = set(eliminate)
    order: list[str] = []
    while remaining:
        best_name = None
        best_fill = None
        for name in sorted(remaining):
            neighbors = [n for n in graph.neighbors(name) if n in remaining]
            fill = sum(
                1
                for i, first in enumerate(neighbors)
                for second in neighbors[i + 1 :]
                if not graph.has_edge(first, second)
            )
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_name = name
        assert best_name is not None
        neighbors = [n for n in graph.neighbors(best_name) if n in remaining]
        for i, first in enumerate(neighbors):
            for second in neighbors[i + 1 :]:
                graph.add_edge(first, second)
        graph.remove_node(best_name)
        remaining.remove(best_name)
        order.append(best_name)
    return order
