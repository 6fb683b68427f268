"""The built-graph oracle for eigenfunctions held on a generation table.

``construct`` keeps a synchronized family's eigenfunction on its
``GenerationTable``: one solution per generation, on the generation's first
edge.  ``expanded`` gives the same eigenfunction on the built graph, where
every edge carries its generation's solution, so that tests can compare
what the stages compute on the table with what they compute edge by edge.
"""

from dataclasses import replace

from qgdecay.eigenfunctions import Eigenfunction
from qgdecay.graph import GenerationTable


def expanded(f: Eigenfunction) -> Eigenfunction:
    """``f`` on its built graph; ``f`` itself when its graph is built."""
    table = f.graph
    if not isinstance(table, GenerationTable):
        return f
    solutions = {
        eid: replace(sol, edge=eid)
        for first, sol in f.solutions.items()
        for eid in range(first, first + table.edge_count(first))
    }
    return Eigenfunction(table.expand(), solutions, f.family, f.mode, f.meta)
