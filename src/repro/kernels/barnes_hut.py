"""Barnes-Hut N-body simulation — random access pattern (paper Algorithm 2).

Bodies are organised into a quadtree ``T``; computing the net force on a
body walks the tree, descending only where the opening criterion
``size/dist >= theta`` demands.  Which nodes a walk visits depends on
the (random) particle distribution, so accesses to ``T`` are the paper's
canonical *random* pattern; the per-walk visit count ``k`` is measured
by profiling, exactly as the paper obtains its Aspen parameters.

The tree is a set of flat arrays (:class:`_Tree`), one row per node.
Nodes are numbered in the order that inserting the bodies one at a time
creates them, so node ids, and with them the recorded trace, are those
of a classic pointer quadtree.  :func:`_build_tree` builds it level by
level: the bodies that still share a cell are grouped by (parent cell,
quadrant) with the quadrant bits read off the integer cell coordinates
``floor(x * 2**depth)``, and masses and centres of mass are summed
bottom-up over quadrants 0..3 in order.

The force walks of all bodies run together (:func:`_walk`): a frontier
of (body, node) pairs moves one tree level down per numpy step.  Each
body's walk visits the nodes a depth-first stack walk would (children
pushed in quadrant order, so popped 3, 2, 1, 0); ordering a body's
visits by preorder rank (:func:`_preorder_rank`) recovers the stack
walk's sequence, and adding force terms in that order gives the same
floating-point forces.

Major data structures (Table II): the tree ``T`` (32-byte nodes) and the
particle array ``P`` (32-byte records: x, y, mass, padding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.random_access import WorkingSetRandomAccess
from repro.patterns.streaming import StreamingAccess
from repro.trace.recorder import TraceRecorder

_NODE_SIZE = 32
_PARTICLE_SIZE = 32

#: Deepest cell level whose integer coordinates ``floor(x * 2**depth)``
#: fit in int64; bodies still sharing a cell there cannot be separated.
_MAX_DEPTH = 62


@dataclass(frozen=True)
class _Tree:
    """A Barnes-Hut quadtree over the unit square, one array row per node.

    Node 0 is the root.  A node at depth ``d`` covers a cell of
    half-width ``0.5 * 2**-d``; a leaf holds exactly one body.
    """

    children: np.ndarray  # (nodes, 4) int64: child per quadrant, -1 if none
    body: np.ndarray      # body held by a leaf, -1 for internal nodes
    mass: np.ndarray
    comx: np.ndarray
    comy: np.ndarray
    depth: np.ndarray

    def __len__(self) -> int:
        return len(self.body)

    @property
    def half(self) -> np.ndarray:
        return np.ldexp(0.5, -self.depth)

    @property
    def is_leaf(self) -> np.ndarray:
        return (self.children < 0).all(axis=1)

    def levels(self) -> list[np.ndarray]:
        """Node ids grouped by depth, root level first."""
        order = np.argsort(self.depth, kind="stable")
        bounds = np.searchsorted(
            self.depth[order], np.arange(1, int(self.depth.max()) + 1)
        )
        return np.split(order, bounds)


def _build_tree(positions: np.ndarray, masses: np.ndarray) -> _Tree:
    """Quadtree of bodies at ``positions`` (in ``[0, 1)^2``) with ``masses``.

    Level ``d`` takes the bodies that still share a cell, groups them by
    (parent cell, quadrant) and makes one cell per group: a leaf for a
    lone body, an internal cell otherwise, whose bodies go on to level
    ``d + 1``.  The quadrant bit ``floor(x * 2**d) & 1`` is exact
    because cell centres are dyadic.

    Nodes are then numbered in the order one-at-a-time insertion creates
    them: by the insertion that creates the cell, then depth, then the
    cell that receives the split parent's resident body before the one
    the newcomer lands in.  A cell holding its non-root parent's first
    body is created when the parent's second body arrives; any other
    cell when its own first body arrives.

    Raises :class:`ValueError` when positions leave the unit square or
    two bodies share a cell down to :data:`_MAX_DEPTH`.
    """
    n = len(positions)
    x, y = positions[:, 0], positions[:, 1]
    if not ((positions >= 0.0) & (positions < 1.0)).all():
        raise ValueError("body positions must lie in [0, 1) x [0, 1)")
    # Cell coordinates at the deepest level; level d's are these shifted
    # right by _MAX_DEPTH - d.
    ix = np.floor(np.ldexp(x, _MAX_DEPTH)).astype(np.int64)
    iy = np.floor(np.ldexp(y, _MAX_DEPTH)).astype(np.int64)

    # Per cell, in discovery order (root, then level by level): parent,
    # quadrant, depth, lowest and second-lowest body index inside it (-1
    # for the root, which exists before any insertion), and the body of a
    # leaf.
    parent, quadrant, depth = [np.array([-1])], [np.array([0])], [np.array([0])]
    first, second, leaf_body = [np.array([-1])], [np.array([-1])], [np.array([-1])]
    bodies = np.arange(n, dtype=np.int64)   # bodies still sharing a cell
    cell = np.zeros(n, dtype=np.int64)      # ... and that cell's id
    cells = 1
    level = 0
    while bodies.size:
        level += 1
        if level > _MAX_DEPTH:
            raise ValueError(
                f"bodies {bodies[0]} and {bodies[1]} share every quadtree "
                f"cell down to depth {_MAX_DEPTH}: they cannot be separated"
            )
        shift = _MAX_DEPTH - level
        key = 4 * cell + (
            ((ix[bodies] >> shift) & 1) | (((iy[bodies] >> shift) & 1) << 1)
        )
        by_cell = np.lexsort((bodies, key))
        key, bodies = key[by_cell], bodies[by_cell]
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        count = np.diff(np.r_[start, key.size])
        shared = count > 1
        parent.append(key[start] >> 2)
        quadrant.append(key[start] & 3)
        depth.append(np.full(start.size, level))
        first.append(bodies[start])
        runner_up = bodies[np.minimum(start + 1, key.size - 1)]
        second.append(np.where(shared, runner_up, -1))
        leaf_body.append(np.where(shared, -1, bodies[start]))
        split = np.repeat(shared, count)
        bodies = bodies[split]
        cell = np.repeat(cells + np.arange(start.size), count)[split]
        cells += start.size

    parent = np.concatenate(parent)
    quadrant = np.concatenate(quadrant)
    depth = np.concatenate(depth)
    first = np.concatenate(first)
    second = np.concatenate(second)
    leaf_body = np.concatenate(leaf_body)

    # Creation order of one-at-a-time insertion.
    up = np.maximum(parent, 0)
    resident = (depth > 1) & (first == first[up])
    created_by = np.where(resident, second[up], first)
    order = np.lexsort((~resident, depth, created_by))
    node_of = np.empty(cells, dtype=np.int64)
    node_of[order] = np.arange(cells)

    children = np.full((cells, 4), -1, dtype=np.int64)
    children[node_of[parent[1:]], quadrant[1:]] = node_of[1:]
    body = leaf_body[order]
    depth = depth[order]

    # Masses and centres of mass, bottom-up, children in quadrant order.
    mass = np.zeros(cells)
    comx = np.zeros(cells)
    comy = np.zeros(cells)
    leaf = body >= 0
    mass[leaf] = masses[body[leaf]]
    comx[leaf] = x[body[leaf]]
    comy[leaf] = y[body[leaf]]
    tree = _Tree(children, body, mass, comx, comy, depth)
    for nodes in reversed(tree.levels()):
        nodes = nodes[~leaf[nodes]]
        total = np.zeros(nodes.size)
        mx = np.zeros(nodes.size)
        my = np.zeros(nodes.size)
        for q in range(4):
            kid = children[nodes, q]
            has = kid >= 0
            kid = kid[has]
            m = mass[kid]
            total[has] += m
            mx[has] += comx[kid] * m
            my[has] += comy[kid] * m
        mass[nodes] = total
        heavy = total > 0
        comx[nodes[heavy]] = mx[heavy] / total[heavy]
        comy[nodes[heavy]] = my[heavy] / total[heavy]
    return tree


def _preorder_rank(tree: _Tree) -> np.ndarray:
    """Each node's position in a depth-first walk taking children 3, 2, 1, 0.

    That is the order in which a stack walk that pushes children in
    quadrant order pops them.
    """
    levels = tree.levels()
    size = np.ones(len(tree), dtype=np.int64)
    for nodes in reversed(levels):
        kids = tree.children[nodes]
        size[nodes] += np.where(kids >= 0, size[kids], 0).sum(axis=1)
    rank = np.zeros(len(tree), dtype=np.int64)
    for nodes in levels:
        offset = rank[nodes] + 1
        for q in (3, 2, 1, 0):
            kid = tree.children[nodes, q]
            has = kid >= 0
            rank[kid[has]] = offset[has]
            offset[has] += size[kid[has]]
    return rank


def _walk(
    tree: _Tree, positions: np.ndarray, theta: float
) -> Iterator[tuple[np.ndarray, ...]]:
    """All bodies' force walks at once, one tree level per step.

    Yields ``(bodies, nodes, accept, dx, dy, dist2)`` per level: the
    (body, node) pairs visited there, which of them add a force term,
    and the separation of each pair.  The rules are the stack walk's:
    every node reached is visited; a massless node ends there; a leaf,
    or a node far enough away that ``(2 * half)**2 < theta**2 * dist2``,
    adds a force term unless it is the body's own leaf; any other node
    is opened and its children are visited one level down.
    """
    x, y = positions[:, 0], positions[:, 1]
    is_leaf = tree.is_leaf
    size2 = (2.0 * tree.half) ** 2
    theta2 = theta * theta
    bodies = np.arange(len(positions), dtype=np.int64)
    nodes = np.zeros(len(positions), dtype=np.int64)
    while bodies.size:
        dx = tree.comx[nodes] - x[bodies]
        dy = tree.comy[nodes] - y[bodies]
        dist2 = dx * dx + dy * dy + 1e-9
        live = tree.mass[nodes] != 0.0
        leaf = is_leaf[nodes]
        stop = leaf | (size2[nodes] < theta2 * dist2)
        own = leaf & (tree.body[nodes] == bodies)
        yield bodies, nodes, live & stop & ~own, dx, dy, dist2
        opened = live & ~stop
        kids = tree.children[nodes[opened]]
        has = kids >= 0
        bodies = np.repeat(bodies[opened], has.sum(axis=1))
        nodes = kids[has]


class BarnesHutKernel(Kernel):
    """2-D Barnes-Hut force calculation (paper Algorithm 2).

    Workload parameters
    -------------------
    n:
        Number of particles.
    theta:
        Opening criterion (default 0.5).
    seed:
        RNG seed for particle placement.
    """

    name = "NB"
    method_class = "N-body method"

    def _build(self, workload: Workload) -> tuple[_Tree, np.ndarray, np.ndarray]:
        n = int(workload["n"])
        seed = int(workload.get("seed", 0))
        rng = np.random.default_rng(seed)
        positions = rng.random((n, 2))
        masses = rng.random(n) + 0.1
        tree = _build_tree(positions, masses)
        self._size_cache[(n, seed)] = len(tree)
        return tree, positions, masses

    def tree_size(self, workload: Workload) -> int:
        """Number of quadtree nodes for this workload (deterministic).

        Memoised per ``(n, seed)``, the tree's only inputs.  Every build
        records its count, so after a profiling walk (which builds the
        tree) sizing the workload builds nothing.
        """
        key = (int(workload["n"]), int(workload.get("seed", 0)))
        size = self._size_cache.get(key)
        if size is None:
            size = len(self._build(workload)[0])
        return size

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        n = int(workload["n"])
        return {
            "T": (self.tree_size(workload), _NODE_SIZE),
            "P": (n, _PARTICLE_SIZE),
        }

    # ------------------------------------------------------------------
    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        tree, positions, _ = self._build(workload)
        n = len(positions)
        num_nodes = len(tree)
        theta = float(workload.get("theta", 0.5))
        recorder.allocate("T", num_nodes, _NODE_SIZE)
        recorder.allocate("P", n, _PARTICLE_SIZE)
        # Construction phase: every node/particle touched once (the
        # random model's assumed initial traversal).
        recorder.record_elements("T", np.arange(num_nodes, dtype=np.int64), True)
        recorder.record_elements("P", np.arange(n, dtype=np.int64), True)
        # Key each visit by (body, preorder rank): sorted, a body's visits
        # and force terms fall in the order of its sequential stack walk.
        rank = _preorder_rank(tree)
        visit_keys, term_keys, term_forces = [], [], []
        for bodies, nodes, accept, dx, dy, dist2 in _walk(tree, positions, theta):
            key = bodies * num_nodes + rank[nodes]
            visit_keys.append(key)
            d2 = dist2[accept]
            inv = tree.mass[nodes[accept]] / (d2 * np.sqrt(d2))
            term_keys.append(key[accept])
            term_forces.append(np.column_stack((dx[accept], dy[accept])) * inv[:, None])
        visits = np.sort(np.concatenate(visit_keys))
        visit_body, visit_rank = np.divmod(visits, num_nodes)
        # Each body reads its P record, then the tree nodes its walk
        # visits: body b's P read comes after the visits of bodies
        # 0..b-1, and the visits fill the slots in between in order.
        per_body = np.bincount(visit_body, minlength=n)
        p_at = np.arange(n) + np.cumsum(per_body) - per_body
        which = np.zeros(n + visits.size, dtype=np.int8)  # 0: T, 1: P
        indices = np.empty(which.size, dtype=np.int64)
        which[p_at] = 1
        indices[p_at] = np.arange(n)
        indices[which == 0] = np.argsort(rank)[visit_rank]
        recorder.record_labelled(("T", "P"), which, indices, False)

        keys = np.concatenate(term_keys)
        order = np.argsort(keys)
        term = np.concatenate(term_forces)[order]
        # Add each body's terms one column at a time, in walk order.
        terms = np.bincount(keys[order] // num_nodes, minlength=n)
        start = np.cumsum(terms) - terms
        forces = np.zeros((n, 2))
        for j in range(int(terms.max())):
            rows = np.flatnonzero(terms > j)
            forces[rows] += term[start[rows] + j]
        return forces

    # ------------------------------------------------------------------
    def profile_k(self, workload: Workload) -> float:
        """Average *distinct* tree nodes visited per force walk.

        The paper obtains ``k`` "by profiling [the] application on any
        available hardware"; this is that profiling run.
        """
        return float(self.profile_frequencies(workload).sum())

    def profile_frequencies(self, workload: Workload) -> np.ndarray:
        """Per-node visit frequency over all force walks.

        Entry ``i`` is the fraction of walks that touch tree node ``i`` —
        the profiling input of the working-set random model (walks share
        the upper tree levels, so the distribution is heavily skewed).
        The walk counts visits one tree level at a time, so the full set
        of (body, node) pairs is never held at once.  Results are
        memoised per workload configuration and read-only: every caller
        shares one array, across all the jobs a service worker runs.
        """
        key = (
            int(workload["n"]),
            float(workload.get("theta", 0.5)),
            int(workload.get("seed", 0)),
        )
        cached = self._freq_cache.get(key)
        if cached is not None:
            return cached
        tree, positions, _ = self._build(workload)
        theta = float(workload.get("theta", 0.5))
        counts = np.zeros(len(tree), dtype=np.int64)
        for _, nodes, *_ in _walk(tree, positions, theta):
            counts += np.bincount(nodes, minlength=len(tree))
        freqs = counts / len(positions)
        freqs.flags.writeable = False
        self._freq_cache[key] = freqs
        return freqs

    _freq_cache: dict = {}
    #: Quadtree node counts per ``(n, seed)``, recorded by every build.
    _size_cache: dict = {}

    def access_model(self, workload: Workload):
        n = int(workload["n"])
        freqs = self.profile_frequencies(workload)
        tree_nodes = len(freqs)
        return {
            "T": WorkingSetRandomAccess(
                num_elements=tree_nodes,
                element_size=_NODE_SIZE,
                visit_frequencies=freqs,
                iterations=n,
                cache_ratio=1.0,
            ),
            # Particles are swept once per force phase on top of the
            # construction traversal; the tree walk between consecutive
            # particle reads interferes with the re-sweep.
            "P": StreamingAccess(
                _PARTICLE_SIZE,
                n,
                1,
                sweeps=2,
                aligned=True,
                interfering_bytes=tree_nodes * _NODE_SIZE,
            ),
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n = int(workload["n"])
        k = float(workload.get("k") or self.profile_k(workload))
        flops = 12.0 * k * n        # ~12 flops per node interaction
        loads = (_NODE_SIZE * k + _PARTICLE_SIZE) * n
        stores = _PARTICLE_SIZE * 1.0 * n
        return ResourceCounts(flops=flops, loads=loads, stores=stores)
