"""Graph isomorphism by networkx: only the tests compare graphs up to relabelling."""

import networkx as nx


def graphs_isomorphic(a, b) -> bool:
    return nx.is_isomorphic(a.to_networkx(), b.to_networkx())
