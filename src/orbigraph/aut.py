"""Equitable refinement, automorphism groups, orbits and isomorphism.

One individualization-refinement (IR) engine serves the equitable
refinement, the automorphism search and isomorphism.  The search works on
a vertex-coloured digraph (ColouredDigraph) whose sorted rows list each
head as often as the arc's weight: a graph is one colour with its
adjacency rows, and orbital similarity hands it the cell digraphs of two
divisor matrices.

Refinement is splitter-queue colour refinement over an ordered partition
kept as cell segments of one vertex array.  A splitter cell is popped, the
arcs out of its members are counted at their heads, and only the cells it
touches are split, fragments in ascending count order.  Every split is
recorded as a trace event (splitter position, cell position, (count, size)
pairs); events name positions and counts, never vertex labels, so
isomorphic search nodes produce equal traces.

The search first quotients out twins: maximal classes of one colour with
equal arc lists (open twins), or equal once each vertex is added to its
own list (closed twins).  Each class becomes one vertex coloured by
(colour, kind, class size), and the quotient is taken again until no
class has two members: in cycle_with_cliques the two triangles at a cycle
vertex become open twins only once each triangle is one vertex.  Every
quotient vertex stands for a block of input vertices, so a permutation of
the last quotient lifts member by member, and so do the transposition and
the cycle that each twin class of each round contributes.  A generator is
kept as the (vertex, image) pairs of the vertices it moves, in ascending
order, so a twin transposition costs the size of its two blocks, not n.

The search runs on the last quotient, with no recursion.  The first path
is a loop from the root: a node copies its parent's equitable partition,
individualizes the smallest vertex of the first smallest non-singleton
cell, and refines with that singleton as the only splitter.  The levels are
then tried deepest first, so while the candidates of level L are tried,
every generator found so far fixes the first L base vertices; one
union-find over all generators therefore holds the orbits of that
stabiliser, and prunes every candidate already in the base vertex's orbit.
A candidate is searched depth first on an explicit stack, and a node is
abandoned at the first trace event that differs from the first path at its
level.  Sparse automorphisms are found without descending to a leaf
(Darga, Sakallah & Markov, Faster symmetry discovery using sparsity of
symmetries, DAC 2008): when every non-singleton cell of a node holds the
same vertices as on the first path, the map between the two nodes'
singletons, fixing everything else, is tested at once.  It is kept if it
maps every moved vertex's row onto its image's row; if it fails, no leaf
below the node is an automorphism, and the node is dropped.

Refinement cannot split the root cell of a regular graph, and a rigid one
leaves nothing to prune, so each of its n-1 root candidates would be
refined and refuted on its own.  So the first time a root candidate is
refuted, which shows that the root's target cell is not an orbit, every
non-singleton root cell is split by its members' distance-layer profiles,
grown one BFS layer at a time until some cell splits (_profile_split),
and the search restarts once from the refinement of that partition,
keeping only the twin quotient and its generators.  This is sound:
automorphisms preserve distances, so a vertex's profile is an invariant,
every automorphism maps each cell of the new root onto itself, and the
search from it finds the whole group.  Vertex-transitive and
orbit-equitable inputs never refute a root candidate, so they never split.
nauty splits the root of a regular graph by vertex invariants in the same
way (McKay & Piperno, Practical graph isomorphism II, 2014).

The group order is the product over levels of the base vertex's orbit size
when its level finishes, times (class size)! for every twin class of every
round.  Orbits are the unions of the blocks in a quotient vertex's orbit.

Isomorphism of two connected digraphs is the classical IR test on their
disjoint union (McKay & Piperno 2014): they are isomorphic iff an
automorphism of the union swaps the two sides, and then one lies below the
root's candidates on the other side.  So only the first path is searched,
then the root's candidates in the second digraph, and the search stops at
the first automorphism.  The first refuted candidate splits the root of
the union as above, since a swap preserves distances too.  A root cell
with unequal numbers of vertices from the two sides rules a swap out.

Scale, measured on one core of a 2-vCPU Intel Xeon VM with Python 3.11, at
the 2000-vertex cap: the search takes 0.1 s on torus(40, 50), 0.04 s on
cycle_with_cliques(400, 3, 2), 0.4-0.5 s on loaded_torus((20, 20), 2, 2)
(a 400-level base), 0.4-0.5 s on crossed_prism(1000) (500 levels), 0.02 s
on a rigid random cubic graph with 1000 vertices, 0.05 s on one with 2000,
and 0.07 s on complete(1200).  On the rigid cubic graph with 2000 vertices
and a relabelling of it, isomorphism takes 0.14-0.18 s, and the whole
`orbigraph compare --json`, which decides it on the 2000-cell digraphs of
the two divisor matrices, 1.3-1.4 s.
"""

from collections import deque
from functools import lru_cache
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .graph_core import Frozen, Graph


class Partition(Frozen):
    """Ordered partition of {0, ..., n-1} into disjoint nonempty sorted cells."""

    __slots__ = _fields = ("cells",)
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: tuple[tuple[int, ...], ...]) -> None:
        seen: set[int] = set()
        for cell in cells:
            if not cell:
                raise ValueError("empty cell in partition")
            if list(cell) != sorted(cell):
                raise ValueError(f"cell {cell} not sorted ascending")
            if seen & set(cell):
                raise ValueError("cells are not disjoint")
            seen.update(cell)
        if seen != set(range(len(seen))):
            raise ValueError("cells do not cover a dense vertex range 0..n-1")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(sorted(cell)) for cell in cells))

    @property
    def n(self) -> int:
        return sum(len(cell) for cell in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell_index(self) -> list[int]:
        """Map vertex -> index of its cell."""
        idx = [0] * self.n
        for i, cell in enumerate(self.cells):
            for v in cell:
                idx[v] = i
        return idx

    def canonical(self) -> "Partition":
        """Cells reordered by size descending, then smallest vertex ascending."""
        return Partition(tuple(sorted(self.cells, key=lambda c: (-len(c), c[0]))))


class AutGroup(NamedTuple):
    """Automorphism group given by generators, with order and vertex orbits.

    A generator is the tuple of its (v, image of v) pairs over the vertices
    it moves, in ascending v; every other vertex is fixed.
    """

    generators: tuple[tuple[tuple[int, int], ...], ...]
    order: int
    orbits: Partition


def unit_partition(n: int) -> Partition:
    return Partition((tuple(range(n)),))


class _UnionFind:
    def __init__(self, items: Iterable) -> None:
        self.parent = {x: x for x in items}
        self.size = dict.fromkeys(self.parent, 1)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if self.size[ra] > self.size[rb]:
                ra, rb = rb, ra
            self.parent[ra] = rb
            self.size[rb] += self.size[ra]

    def class_size(self, x) -> int:
        return self.size[self.find(x)]

    def groups(self) -> list[list]:
        by_root: dict = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


class _Cells:
    """Ordered partition of 0..n-1 as cell segments of one vertex array.

    A cell is named by its start position in `lab`; `clen[start]` is its
    length and `cell_of[v]` the start of v's cell.  Positions and lengths
    are label-invariant, so they are what the trace records.
    """

    __slots__ = ("lab", "pos", "cell_of", "clen", "ncells")

    def __init__(self, lab: list[int], pos: list[int], cell_of: list[int], clen: list[int], ncells: int) -> None:
        self.lab = lab
        self.pos = pos
        self.cell_of = cell_of
        self.clen = clen
        self.ncells = ncells

    @classmethod
    def from_cells(cls, n: int, cells: Iterable[Iterable[int]]) -> "_Cells":
        lab: list[int] = []
        cell_of = [0] * n
        clen = [0] * n
        ncells = 0
        for cell in cells:
            start = len(lab)
            lab.extend(cell)
            clen[start] = len(lab) - start
            for v in lab[start:]:
                cell_of[v] = start
            ncells += 1
        pos = [0] * n
        for p, v in enumerate(lab):
            pos[v] = p
        return cls(lab, pos, cell_of, clen, ncells)

    def copy(self) -> "_Cells":
        return _Cells(self.lab[:], self.pos[:], self.cell_of[:], self.clen[:], self.ncells)

    def starts(self) -> list[int]:
        out = []
        c, n = 0, len(self.lab)
        while c < n:
            out.append(c)
            c += self.clen[c]
        return out

    def cells(self) -> list[list[int]]:
        return [self.lab[c : c + self.clen[c]] for c in self.starts()]

    def target(self) -> int:
        """Start of the first non-singleton cell of minimum size, or -1 if discrete."""
        best, best_len = -1, len(self.lab) + 1
        clen = self.clen
        c, n = 0, len(self.lab)
        while c < n:
            length = clen[c]
            if 1 < length < best_len:
                best, best_len = c, length
                if length == 2:
                    break
            c += length
        return best

    def individualize(self, v: int) -> int:
        """Split v off as a singleton at the end of its cell; return its position."""
        c = self.cell_of[v]
        last = c + self.clen[c] - 1
        lab, pos = self.lab, self.pos
        u, p = lab[last], pos[v]
        lab[last], lab[p] = v, u
        pos[v], pos[u] = last, p
        self.clen[c] -= 1
        self.clen[last] = 1
        self.cell_of[v] = last
        self.ncells += 1
        return last

    def refine(self, adj: Sequence[Sequence[int]], splitters: Iterable[int], ref: list | None = None) -> list | None:
        """Refine to the coarsest equitable partition finer than self.

        `splitters` must be the starts of the cells whose neighbour counts
        may not be constant on other cells.  Returns the trace, or None as
        soon as it departs from `ref` when a reference trace is given.
        """
        lab, pos, cell_of, clen = self.lab, self.pos, self.cell_of, self.clen
        n = len(lab)
        queue = deque(splitters)
        queued = [False] * n
        for s in queue:
            queued[s] = True
        trace: list = []
        while queue and self.ncells < n:
            s = queue.popleft()
            queued[s] = False
            cnt: dict[int, int] = {}
            for v in lab[s : s + clen[s]]:
                for w in adj[v]:
                    cnt[w] = cnt.get(w, 0) + 1
            hit: dict[int, list[int]] = {}
            for w in cnt:
                c = cell_of[w]
                if clen[c] > 1:
                    hit.setdefault(c, []).append(w)
            for c in sorted(hit):
                members = hit[c]
                size, touched = clen[c], len(members)
                groups: dict[int, list[int]] = {}
                for w in members:
                    groups.setdefault(cnt[w], []).append(w)
                if touched == size and len(groups) == 1:
                    continue
                end = c + size
                p = end - touched
                if p > c:
                    # Untouched members keep the head of the segment; swap
                    # touched ones out of it into the tail.
                    holes = [pos[w] for w in members if pos[w] < p]
                    if holes:
                        movers = [u for u in lab[p:end] if u not in cnt]
                        for h, u in zip(holes, movers):
                            lab[h] = u
                            pos[u] = h
                    clen[c] = size - touched
                    frags, sig = [c], [(0, size - touched)]
                else:
                    frags, sig = [], []
                for k in sorted(groups):
                    group = groups[k]
                    start = p
                    frags.append(start)
                    sig.append((k, len(group)))
                    clen[start] = len(group)
                    for w in group:
                        lab[p] = w
                        pos[w] = p
                        cell_of[w] = start
                        p += 1
                self.ncells += len(frags) - 1
                event = (s, c, tuple(sig))
                if ref is not None and (len(trace) >= len(ref) or ref[len(trace)] != event):
                    return None
                trace.append(event)
                if queued[c]:
                    del frags[0]
                else:
                    # Counts into the first largest fragment follow from the others.
                    frags.remove(max(frags, key=clen.__getitem__))
                for f in frags:
                    queued[f] = True
                    queue.append(f)
        if ref is not None and len(trace) != len(ref):
            return None
        return trace


def equitable_refinement(graph: Graph, seed: Partition | None = None) -> Partition:
    """Coarsest equitable partition refining `seed` (trivial seed by default).

    Cells of the result are in canonical order (size descending, smallest
    vertex ascending).
    """
    if seed is None:
        seed = unit_partition(graph.n)
    if seed.n != graph.n:
        raise ValueError(f"seed partitions {seed.n} vertices, graph has {graph.n}")
    cells = _Cells.from_cells(graph.n, seed.cells)
    cells.refine(graph.adjacency, cells.starts())
    return Partition.from_cells(cells.cells()).canonical()


class ColouredDigraph(NamedTuple):
    """Input of the IR engine: a vertex-coloured digraph with arc weights.

    colour[v] is any sortable value; vertices of one colour may be swapped,
    and cells start in ascending colour order.  adj[v] is the sorted tuple
    of the heads of v's arcs, each listed as often as the arc's weight, so
    the weight of (u, v) is the multiplicity of v in adj[u].  The weight of
    (v, u) must follow from that of (u, v) and the colours of u and v, with
    no arc back iff none forth: true for a graph, and for a divisor matrix
    whose colours carry the relative cell sizes, because s_i B_ij = s_j B_ji.
    """

    colour: Sequence
    adj: Sequence[tuple[int, ...]]

    @classmethod
    def from_graph(cls, graph: Graph) -> "ColouredDigraph":
        """The graph with a single colour and both arcs of every edge."""
        return cls((0,) * graph.n, graph.adjacency)


def _twin_classes(colour: Sequence, adj: Sequence[tuple[int, ...]]) -> list[tuple[int, list[int]]]:
    """Maximal twin classes as (kind, sorted members), by smallest member.

    Kind 0 is a lone vertex, 1 a class of open twins (one colour, equal arc
    lists) and 2 a class of closed twins (one colour, equal arc lists once
    each vertex is added to its own).  A vertex cannot have both an open and
    a closed twin, so the classes partition the vertex set.
    """
    by_open: dict[tuple, list[int]] = {}
    for v, nbrs in enumerate(adj):
        by_open.setdefault((colour[v], nbrs), []).append(v)
    # Only a vertex with no open twin can have a closed one.
    by_closed: dict[tuple, list[int]] = {}
    for (c, nbrs), members in by_open.items():
        if len(members) == 1:
            by_closed.setdefault((c, tuple(sorted([*nbrs, *members]))), []).append(members[0])
    classes = [(1, members) for members in by_open.values() if len(members) > 1]
    classes += ((2 if len(members) > 1 else 0, members) for members in by_closed.values())
    return sorted(classes, key=lambda c: c[1][0])


def _profile_split(adj: Sequence[Sequence[int]], cells: list[list[int]]) -> list[list[int]] | None:
    """The cells with every non-singleton cell split by its members'
    distance-layer profiles, fragments in ascending profile order, or None
    if no cell splits.

    Entry d of v's profile comes from the rows of layer d-1 of the BFS ball
    around v: the vertices of layer d, the arcs into layer d beyond one per
    vertex, and the arcs inside layer d-1.  Once the ball covers v's
    component, the profile ends with (0, 0, arcs out of the last layer less
    the arcs into it), which for a graph are the arcs inside it, taken from
    degree sums rather than the layer's rows.  All members grow by one layer
    per step until some cell splits or every ball covers its component.

    Every arc has a reverse, so a head of an arc out of the last layer lies
    in that layer, the one before it or the next one.  So between steps a
    member keeps only its last two layers, never its ball, and marks them
    afresh when it grows.  A profile of radius r then costs the rows of the
    ball's inner r layers, about what refining v's candidate node costs when
    its trace departs r layers out, and the kept layers hold no more
    vertices than the last two steps scanned arcs.
    """
    n = len(adj)
    component = [-1] * n
    sizes: list[int] = []  # vertices and arcs of each component
    arcs: list[int] = []
    for s in range(n):
        if component[s] < 0:
            component[s] = len(sizes)
            stack, size, total = [s], 0, 0
            while stack:
                u = stack.pop()
                size += 1
                total += len(adj[u])
                for w in adj[u]:
                    if component[w] < 0:
                        component[w] = len(sizes)
                        stack.append(w)
            sizes.append(size)
            arcs.append(total)
    # While a member grows, mark[w] is base for its last layer but one,
    # base + 1 for its last layer and base + 2 for the new one; every other
    # mark is below base, which moves past all marks before each member.
    mark = [-1] * n
    base = 0
    # A growing member's previous layer, last layer, vertices seen, arcs
    # scanned and arcs into its last layer.
    state = {v: ([], [v], 1, 0, 0) for cell in cells if len(cell) > 1 for v in cell}
    while state:
        # The members of a cell have agreed on every entry so far, so they
        # all get one at this step or none does, and this step's entries
        # alone split the cell, in ascending profile order.
        step: dict[int, tuple[int, int, int]] = {}
        for v, (previous, layer, seen, scanned, into) in list(state.items()):
            size, total = sizes[component[v]], arcs[component[v]]
            if seen == size:
                step[v] = (0, 0, total - scanned - into)
                del state[v]
                continue
            base += 3
            for u in previous:
                mark[u] = base
            for u in layer:
                mark[u] = base + 1
            new: list[int] = []
            extra = inside = 0
            for u in layer:
                row = adj[u]
                scanned += len(row)
                for w in row:
                    m = mark[w]
                    if m < base:
                        mark[w] = base + 2
                        new.append(w)
                    elif m == base + 2:
                        extra += 1
                    elif m == base + 1:
                        inside += 1
            step[v] = (len(new), extra, inside)
            state[v] = (layer, new, seen + len(new), scanned, len(new) + extra)
        if any(len({step.get(v) for v in cell}) > 1 for cell in cells):
            break
    else:
        return None
    split: list[list[int]] = []
    for cell in cells:
        fragments: dict = {}
        for v in cell:
            fragments.setdefault(step.get(v), []).append(v)
        split.extend(fragments[key] for key in sorted(fragments))
    return split


class _AutSearch:
    """IR search for the automorphisms of a coloured digraph, on its twin quotient."""

    def __init__(self, colour: Sequence, adj: Sequence[tuple[int, ...]]) -> None:
        self.heads = adj  # of the input, for the arc check
        self.generators: list[tuple[tuple[int, int], ...]] = []
        self.twin_order = 1
        # blocks[q] lists the input vertices that quotient vertex q stands for,
        # in the order in which a permutation of the quotient lifts.
        blocks = [[v] for v in range(len(adj))]
        while True:
            classes = _twin_classes(colour, adj)
            if len(classes) == len(adj):
                break
            class_of = [0] * len(adj)
            for q, (_, members) in enumerate(classes):
                for v in members:
                    class_of[v] = q
                if len(members) > 1:
                    self.twin_order *= factorial(len(members))
                    self._add_block_cycle([blocks[v] for v in members[:2]])
                    if len(members) > 2:
                        self._add_block_cycle([blocks[v] for v in members])
            # A representative has equal weights to every member of another
            # class, so its arcs to the representatives carry the quotient.
            rep = [members[0] for _, members in classes]
            adj = [tuple(class_of[w] for w in adj[r] if w == rep[class_of[w]] and w != r) for r in rep]
            colour = [(colour[members[0]], kind, len(members)) for kind, members in classes]
            blocks = [[v for w in members for v in blocks[w]] for _, members in classes]
        self.adj = adj
        self.blocks = blocks
        self.twin_generators = len(self.generators)
        colours: dict = {}
        for q, c in enumerate(colour):
            colours.setdefault(c, []).append(q)
        # The root's cells before refinement: the colours, until a refuted
        # root candidate has them split by distance profile (split_root).
        self.root_cells = [colours[key] for key in sorted(colours)]
        self.root_split = False
        self.orbits = _UnionFind(range(len(adj)))
        self.first_traces: list[list] = []
        self.first_leaf: list[int] = []
        self.targets: list[int] = []
        self.order = 1

    def first_path(self) -> list[_Cells]:
        """Search the first path; return its nodes above the leaf, root first."""
        node = _Cells.from_cells(len(self.adj), self.root_cells)
        self.first_traces = [node.refine(self.adj, node.starts())]
        self.targets = [node.target()]
        path: list[_Cells] = []
        while (c := self.targets[-1]) >= 0:
            path.append(node)
            node = node.copy()
            self.first_traces.append(node.refine(self.adj, [node.individualize(min(node.lab[c : c + node.clen[c]]))]))
            self.targets.append(node.target())
        self.first_leaf = node.lab
        return path

    def run(self) -> None:
        path = self.first_path()
        # Deepest level first: every generator found so far fixes the base
        # vertices above the level being tried.
        while path:
            level = len(path) - 1
            node = path[-1]
            c = self.targets[level]
            members = sorted(node.lab[c : c + node.clen[c]])
            b = members[0]
            for v in members[1:]:
                if self.orbits.find(v) != self.orbits.find(b) and not self._try(node, v, level + 1):
                    if level == 0 and self.split_root(node):
                        path = self.first_path()
                        break
            else:
                path.pop()
                self.order *= self.orbits.class_size(b)

    def split_root(self, root: _Cells) -> bool:
        """Called when a candidate of the refined root is refuted, so the
        root's target cell is not an orbit.  The first time, split the root's
        cells by distance profile; if any cell splits, drop what the search
        has found beyond the twins and say that it must restart."""
        if self.root_split:
            return False
        self.root_split = True
        cells = _profile_split(self.adj, root.cells())
        if cells is None:
            return False
        self.root_cells = cells
        del self.generators[self.twin_generators :]
        self.orbits = _UnionFind(range(len(self.adj)))
        self.order = 1
        return True

    def _add_block_cycle(self, cycle: list[list[int]]) -> None:
        image: dict[int, int] = {}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image.update(zip(a, b))
        self.generators.append(tuple(sorted(image.items())))

    def _try(self, parent: _Cells, v: int, level: int) -> bool:
        """Depth-first search of the subtree of parent + v, whose root is at
        `level`, for an automorphism; stops at the first one found, kept as
        the last generator, and says whether there was one."""
        stack = [(parent, level, [v])]
        while stack:
            parent, level, todo = stack[-1]
            if not todo:
                stack.pop()
                continue
            node = parent.copy()
            if node.refine(self.adj, [node.individualize(todo.pop())], self.first_traces[level]) is None:
                continue
            image = self._singleton_map(node)
            if image is None:
                # Equal traces give the first path's cells, so its target too.
                c = self.targets[level]
                stack.append((node, level + 1, sorted(node.lab[c : c + node.clen[c]], reverse=True)))
            elif self._accept(image):
                return True
        return False

    def _singleton_map(self, node: _Cells) -> dict[int, int] | None:
        """The candidate that node's singletons give, as the image of each
        vertex it moves, or None if there is none.

        node has passed the trace check, so its cells have the starts and
        lengths of the first-path node F at its level.  When every
        non-singleton cell also holds the same vertices as in F, the candidate
        maps F's vertex at each singleton position to node's vertex there and
        fixes everything else; a leaf is the case of no non-singleton cell.
        Refinement only reorders a cell within its segment of positions, so
        the first leaf holds F's singletons, and F's cell at each segment.

        If the candidate is not an automorphism, no leaf below node gives
        one: such an automorphism would map F onto node, so agree with the
        candidate on the singletons and map every non-singleton cell onto
        itself; and a singleton has arcs of one weight to all of a cell of an
        equitable partition, or none, so the candidate would keep every arc
        too.  The caller therefore abandons node when the candidate fails.
        """
        cell_of, clen = node.cell_of, node.clen
        image = {}
        for a, b in zip(self.first_leaf, node.lab):
            if a != b:
                c = cell_of[b]
                if clen[c] == 1:
                    image[a] = b
                elif cell_of[a] != c:
                    return None
        return image

    def _accept(self, image: dict[int, int]) -> bool:
        """Lift a permutation of the quotient, given on the vertices it moves;
        keep it if it is an automorphism."""
        lifted: dict[int, int] = {}
        for q, r in image.items():
            lifted.update(zip(self.blocks[q], self.blocks[r]))
        if not self._is_automorphism(lifted):
            return False
        self.generators.append(tuple(sorted(lifted.items())))
        for q, r in image.items():
            self.orbits.union(q, r)
        return True

    def _is_automorphism(self, image: dict[int, int]) -> bool:
        # An arc between fixed vertices maps to itself, and an arc's weight
        # follows from its reverse's and the colours, which every candidate
        # keeps; so checking the rows of the moved vertices, as multisets of
        # heads, checks every arc.
        heads, at = self.heads, image.get
        for u, iu in image.items():
            row = heads[u]
            if tuple(sorted(map(at, row, row))) != heads[iu]:
                return False
        return True

    def orbit_cells(self) -> list[list[int]]:
        return [[v for q in group for v in self.blocks[q]] for group in self.orbits.groups()]


@lru_cache(maxsize=256)
def automorphism_group(graph: Graph) -> AutGroup:
    """Generators, order, and vertex orbits of Aut(graph).

    The search runs on the iterated twin quotient (see the module
    docstring).  Generators are in the sparse form of AutGroup.  Every
    generator from the search has passed an edge check on `graph`; each
    twin class of size k >= 2 adds a transposition and, for k >= 3, a
    k-cycle of its members' blocks.  The order is exact: the
    product over search levels of the base vertex's orbit size, times k!
    for every twin class.
    Orbits come in canonical order.
    """
    if graph.n == 0:
        raise ValueError("automorphism group undefined for the empty graph")
    search = _AutSearch(*ColouredDigraph.from_graph(graph))
    search.run()
    for g in search.generators:
        # A bijection of 0..n-1: its images are exactly the moved points.
        if sorted(w for _, w in g) != [v for v, _ in g] or any(v == w for v, w in g):
            raise ValueError(f"generator {g} is not a permutation of its moved points")
    return AutGroup(
        generators=tuple(search.generators),
        order=search.order * search.twin_order,
        orbits=Partition.from_cells(search.orbit_cells()).canonical(),
    )


def isomorphism(a: ColouredDigraph, b: ColouredDigraph) -> tuple[int, ...] | None:
    """An isomorphism from a onto b as the image of each vertex of a, or None.

    a and b must be connected.  The search is set up on the disjoint union
    of a and b, with b's vertices shifted past a's, and looks for a swap: an
    automorphism of the union that moves vertex 0 into b, so moves all of a
    onto b.  A twin generator is one when each side collapses to a single
    quotient vertex.  Otherwise only the first path is searched, and then
    the root's candidates in b, in ascending order; the first automorphism
    found below one of them is the answer, restricted to a.  That is
    complete: a swap keeps every cell of the root, so maps the root's first
    base vertex to a candidate in b, below which lies a leaf equivalent to
    the first leaf.  Levels below the root are not searched, since they
    only find automorphisms of a that fix the base, and automorphisms of b.
    At the first candidate in b that is refuted, the root's cells are split
    by distance profile, computed the same way on both sides of the union,
    and the search starts again from the new root.  A root with a cell that
    holds unequal numbers of quotient vertices of a and of b gives None at
    once, since a swap maps that cell onto itself and a onto b.
    """
    na = len(a.adj)
    if na != len(b.adj) or sorted(map(len, a.adj)) != sorted(map(len, b.adj)) or sorted(a.colour) != sorted(b.colour):
        return None
    adj = [*a.adj, *(tuple(w + na for w in nbrs) for nbrs in b.adj)]
    search = _AutSearch([*a.colour, *b.colour], adj)
    for g in search.generators:
        if (phi := _swap(g, na)) is not None:
            return phi
    path = search.first_path()
    while path and _balanced(path[0], search.blocks, na):
        root, c = path[0], search.targets[0]
        for v in sorted(root.lab[c : c + root.clen[c]])[1:]:
            if search.blocks[v][0] < na:
                continue
            if search._try(root, v, 1):
                if (phi := _swap(search.generators[-1], na)) is not None:
                    return phi
            elif search.split_root(root):
                path = search.first_path()
                break
        else:
            return None
    return None


def _balanced(root: _Cells, blocks: list[list[int]], na: int) -> bool:
    """Whether every cell of the root holds as many quotient vertices of a
    as of b, as it must if a swap exists, since a swap maps each cell onto
    itself and a onto b."""
    return all(2 * sum(blocks[q][0] < na for q in cell) == len(cell) for cell in root.cells())


def _swap(g: tuple[tuple[int, int], ...], na: int) -> tuple[int, ...] | None:
    """a's images if g moves vertex 0 into b, else None.  Such a g moves all
    of a, so its first na pairs are a's vertices in order."""
    v, w = g[0]
    return tuple(w - na for _, w in g[:na]) if v == 0 and w >= na else None


def orbit_partition(graph: Graph) -> Partition:
    """Vertex orbits under Aut(graph), cells in canonical order."""
    return automorphism_group(graph).orbits
