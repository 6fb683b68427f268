"""Oracles for the array layout of built graphs: the Vertex and Edge
objects that the family builders made one by one before they filled arrays,
and the code that read those objects.  The tests compare them with the
array graph's views and stages.
"""

import math

from qgdecay.graph import Edge, GraphValidationError, Vertex


def two_lengths_tree(depth, l1, l2, potential):
    ids = range(2 << depth)
    vertices = [Vertex(v, v.bit_length(), v == 0 or v >> depth > 0) for v in ids]
    edges = [Edge(e, (e + 1) // 2, e + 1, l2 if e and e % 2 == 0 else l1,
                  potential, (e + 1).bit_length() - 1) for e in ids[:-1]]
    return vertices, edges


def comb(spine, teeth, spine_length, spine_potential, tooth_length,
         tooth_potential):
    vertices = [Vertex(0, 0, True)]
    vertices += [Vertex(j, j, j == spine) for j in range(1, spine + 1)]
    vertices += [Vertex(spine + j, j, True) for j in range(1, teeth + 1)]
    edges = [Edge(j, j, j + 1, spine_length, spine_potential, j)
             for j in range(spine)]
    edges += [Edge(spine + j - 1, j, spine + j, tooth_length, tooth_potential, j)
              for j in range(1, teeth + 1)]
    return vertices, edges


def ladder(n, w, rail_potential, rung_potential):
    vertices = [Vertex(v, (v + 1) // 2, v == 0 or v >= 2 * n - 1)
                for v in range(2 * n + 1)]
    edges = [Edge(e, max(e - 1, 0), e + 1, 1.0, rail_potential, e // 2)
             for e in range(2 * n)]
    edges += [Edge(2 * n + j - 1, 2 * j - 1, 2 * j, w, rung_potential, j)
              for j in range(1, n + 1)]
    return vertices, edges


def expansion(table):
    """What ``GenerationTable.expand`` builds, edge by edge."""
    vertices, edges = [table.vertices[0]], []
    tails, per_tail = [0], table.family_info.root_edges
    for gen, row in enumerate(table.rows):
        heads = list(range(row.first_vertex, row.first_vertex + row.vertices))
        vertices += [Vertex(v, gen + 1, row.ongoing == 0) for v in heads]
        edges += [Edge(row.first_edge + i, tails[i // per_tail],
                       heads[i // row.arriving], row.length, table.potential, gen)
                  for i in range(row.edges)]
        tails, per_tail = heads, row.ongoing
    return vertices, edges


def incidence(vertices, edges):
    """Vertex id -> the ids of its edges, in edge order, a loop once."""
    out = {v.id: [] for v in vertices}
    for e in edges:
        if e.tail in out:
            out[e.tail].append(e.id)
        if e.head in out and e.head != e.tail:
            out[e.head].append(e.id)
    return {vid: tuple(eids) for vid, eids in out.items()}


def validate(graph):
    """MetricGraph.validate as it read Vertex and Edge objects."""
    seen_v = set()
    for v in graph.vertices:
        if v.id in seen_v:
            raise GraphValidationError(f"duplicate vertex id {v.id}")
        seen_v.add(v.id)
    seen_e = set()
    for e in graph.edges:
        if e.id in seen_e:
            raise GraphValidationError(f"duplicate edge id {e.id}")
        seen_e.add(e.id)
        for end in (e.tail, e.head):
            if end not in graph.vertex_by_id:
                raise GraphValidationError(f"edge {e.id}: dangling endpoint {end}")
        if not (e.length > 0.0) or not math.isfinite(e.length):
            raise GraphValidationError(f"edge {e.id}: non-positive length")
        if not math.isfinite(e.potential):
            raise GraphValidationError(
                f"edge {e.id}: non-finite potential {e.potential}"
            )
    if graph.root not in graph.vertex_by_id:
        raise GraphValidationError(f"root {graph.root} is not a vertex")
    at = incidence(graph.vertices, graph.edges)
    reached, stack = {graph.root}, [graph.root]
    while stack:
        for eid in at[stack.pop()]:
            e = graph.edge_by_id[eid]
            for nxt in (e.tail, e.head):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
    unreached = sorted(seen_v - reached)
    if unreached:
        raise GraphValidationError(f"vertices disconnected from root: {unreached}")
    for e in graph.edges:
        if e.id not in graph.core_edges and not (e.potential - graph.energy > 0.0):
            raise GraphValidationError(
                f"edge {e.id}: V - E = {e.potential - graph.energy} <= 0 "
                "outside the designated core"
            )


def interior_vertex_ids(graph):
    """MetricGraph.interior_vertex_ids, vertex by vertex."""
    at = incidence(graph.vertices, graph.edges)
    degree = {vid: sum(2 if graph.edge_by_id[eid].tail == graph.edge_by_id[eid].head
                       else 1 for eid in eids) for vid, eids in at.items()}
    return [v.id for v in graph.vertices if v.id != graph.root
            and not v.boundary and degree[v.id] >= 2]
