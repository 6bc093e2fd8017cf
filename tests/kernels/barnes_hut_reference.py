"""Sequential Barnes-Hut quadtree and force walk: the differential reference.

This is the pointer-based tree and per-body stack walk that
``repro.kernels.barnes_hut`` replaced with flat arrays and one frontier
walk over all bodies.  The tests build both and require equal node
arrays, visit frequencies, traces and forces, bit for bit.

Known defect, kept for fidelity: two bodies that share a cell past depth
64 make ``insert`` overwrite the resident, so one body is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class _Node:
    """One quadtree node (an internal cell or a leaf holding a body)."""

    index: int
    cx: float
    cy: float
    half: float
    body: int | None = None
    children: list["_Node | None"] = field(default_factory=lambda: [None] * 4)
    mass: float = 0.0
    comx: float = 0.0
    comy: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return all(c is None for c in self.children)


class _QuadTree:
    """A Barnes-Hut quadtree over the unit square."""

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.root = self._new_node(0.5, 0.5, 0.5)

    def _new_node(self, cx: float, cy: float, half: float) -> _Node:
        node = _Node(index=len(self.nodes), cx=cx, cy=cy, half=half)
        self.nodes.append(node)
        return node

    def _quadrant(self, node: _Node, x: float, y: float) -> int:
        return (1 if x >= node.cx else 0) | (2 if y >= node.cy else 0)

    def _child(self, node: _Node, q: int) -> _Node:
        child = node.children[q]
        if child is None:
            h = node.half / 2
            cx = node.cx + (h if q & 1 else -h)
            cy = node.cy + (h if q & 2 else -h)
            child = self._new_node(cx, cy, h)
            node.children[q] = child
        return child

    def insert(self, body: int, x: float, y: float) -> None:
        node = self.root
        depth = 0
        while True:
            if node.is_leaf and node.body is None and node is not self.root:
                node.body = body
                return
            if node.is_leaf and node.body is not None:
                # Split: push the resident body down one level.
                resident = node.body
                node.body = None
                # Re-insert below (positions read from the caller's table).
                rx, ry = self._positions[resident]
                q = self._quadrant(node, rx, ry)
                child = self._child(node, q)
                child.body = resident
            q = self._quadrant(node, x, y)
            node = self._child(node, q)
            depth += 1
            if depth > 64:  # pathological duplicates: keep both in one leaf
                node.body = body
                return

    def build(self, positions: np.ndarray, masses: np.ndarray) -> None:
        self._positions = positions
        for body in range(len(positions)):
            self.insert(body, positions[body, 0], positions[body, 1])
        self._summarise(self.root, positions, masses)

    def _summarise(self, node: _Node, positions, masses) -> float:
        if node.is_leaf:
            if node.body is not None:
                node.mass = float(masses[node.body])
                node.comx = float(positions[node.body, 0])
                node.comy = float(positions[node.body, 1])
            return node.mass
        total = 0.0
        mx = my = 0.0
        for child in node.children:
            if child is None:
                continue
            m = self._summarise(child, positions, masses)
            total += m
            mx += child.comx * m
            my += child.comy * m
        node.mass = total
        if total > 0:
            node.comx = mx / total
            node.comy = my / total
        return total


def _force_walk(
    tree: _QuadTree,
    positions: np.ndarray,
    body: int,
    theta: float,
    visit,
) -> tuple[float, float]:
    """Force on one body; ``visit(node_index)`` is called per node read."""
    x, y = positions[body]
    fx = fy = 0.0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        visit(node.index)
        if node.mass == 0.0:
            continue
        dx = node.comx - x
        dy = node.comy - y
        dist2 = dx * dx + dy * dy + 1e-9
        if node.is_leaf or (2 * node.half) ** 2 < theta * theta * dist2:
            if node.is_leaf and node.body == body:
                continue
            inv = node.mass / (dist2 * np.sqrt(dist2))
            fx += dx * inv
            fy += dy * inv
        else:
            for child in node.children:
                if child is not None:
                    stack.append(child)
    return fx, fy
