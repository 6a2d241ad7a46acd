"""Loop analysis over a successor graph.

The textbook loop algorithms that the WVM and N32 control-flow graphs
and the loop-peeling attack share. A graph is a mapping from
each node to its successors, in order; every successor must itself be
a node. The order matters: which edges a depth-first walk classifies
as back edges depends on it.
"""

from __future__ import annotations

from typing import (
    Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple, TypeVar,
)

N = TypeVar("N", bound=Hashable)


def predecessors(successors: Mapping[N, Sequence[N]]) -> Dict[N, List[N]]:
    """Each node's predecessors, in the order the graph lists them."""
    preds: Dict[N, List[N]] = {node: [] for node in successors}
    for node, succs in successors.items():
        for succ in succs:
            preds[succ].append(node)
    return preds


def back_edges(
    successors: Mapping[N, Sequence[N]], roots: Iterable[N]
) -> List[Tuple[N, N]]:
    """(source, target) edges that close a cycle in a depth-first walk
    from each root not yet visited, in the order the walk meets them.

    The walk is iterative, so long graphs do not hit the recursion
    limit.
    """
    color: Dict[N, int] = {}  # absent: unvisited; 1: on the stack; 2: done
    out: List[Tuple[N, N]] = []
    for root in roots:
        if root in color:
            continue
        color[root] = 1
        stack: List[Tuple[N, int]] = [(root, 0)]
        while stack:
            node, child = stack[-1]
            succs = successors[node]
            if child < len(succs):
                stack[-1] = (node, child + 1)
                succ = succs[child]
                c = color.get(succ, 0)
                if c == 1:
                    out.append((node, succ))
                elif c == 0:
                    color[succ] = 1
                    stack.append((succ, 0))
            else:
                color[node] = 2
                stack.pop()
    return out


def natural_loop(
    preds: Mapping[N, Sequence[N]], latch: N, header: N
) -> Set[N]:
    """The natural loop of the back edge ``latch -> header``: the header
    plus every node that reaches the latch without passing through the
    header."""
    body = {header, latch}
    work = [latch]
    while work:
        node = work.pop()
        if node == header:
            continue
        for pred in preds[node]:
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return body
