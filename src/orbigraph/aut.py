"""Equitable refinement, automorphism groups, orbits and isomorphism.

One individualization-refinement (IR) engine serves the equitable
refinement, the automorphism search and isomorphism.  The search works on
a vertex-coloured digraph whose sorted rows list each head as often as the
arc's weight: a graph is one colour with its adjacency rows, and orbital
similarity hands it the cell digraphs of two divisor matrices.

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

When no twins are left, pendant trees are folded (_fold), and the twin
rounds run again, until neither changes the quotient.  The paper's loads
are such trees, and the far ends of two branches are no twins, so without
the fold the search would individualize a branch of every load.  Leaves
are peeled in layers, bottom-up, one layer at a time, as in the tree
isomorphism test of Aho, Hopcroft & Ullman (1974): a vertex v whose only
other head is w folds into w, unless w became such a vertex in the same
layer or earlier, when v and w are the centre edge of their tree.  A
folded child is signed by its name and the arc weights both ways, and w's
colour becomes its own plus the sorted signatures of its children; the
names number the (colour, child signatures) keys of a layer in sorted
order once the layer is done, so they do not depend on labels.  A parent
with two equal signatures keeps its children, which are open twins of the
next round; so the children of a folding parent are told apart by their
signatures, and w's block, its own followed by its children's in signature
order, lifts member by member like any other.  That is sound: every choice
of the fold depends on layers and signatures alone, so an automorphism of
the quotient maps the folded quotient onto itself, and one that fixes
every vertex of the folded quotient fixes every child too, since a
parent's children are told apart; so a fold loses no automorphism that the
twin generators do not give.  Anders, Schweitzer & Stiess (Engineering a
preprocessor for symmetry detection, SEA 2023) use the same preprocessing.

The search runs on the last quotient, with no recursion, and keeps one
partition, as nauty's partition nest keeps every level of its path in one
lab/ptn pair (McKay & Piperno, J. Symbolic Comput. 60, 2014).  The first
path is a loop from the root, in place: each level individualizes the
smallest vertex of the first smallest non-singleton cell, refines with that
singleton as the only splitter and keeps its trace; its leaf's order is
copied once.  A trace event names the start of the cell it split and its
fragments' sizes, and the first fragment keeps the start, so undoing a
refinement's events latest first, then its individualization, gives back
the node it started from (_Cells.undo).  Only each vertex's cell and the
cell lengths change back: a cell may keep another order of its vertices,
which nothing reads, as traces record positions and counts, candidates are
sorted and the singleton map reads singletons and cell membership.  The
levels are then undone and tried deepest first, so while the candidates of
level L are tried, every generator found so far fixes the first L base
vertices; the orbit forest (below) therefore holds the orbits of that
stabiliser, and a candidate is tried only if its orbit holds neither the
base vertex nor a refuted candidate.  Below the first path a node tries
one child per orbit of the generators that fix every vertex individualized
down to it, taken once its first child is refuted; a child keeps those that
fix its vertex.  This is nauty's rule (McKay, Congressus Numerantium 30,
1981; McKay & Piperno 2014): such a generator maps the node onto itself and
one child's subtree onto another's.  A candidate is searched depth first on
an explicit stack, in the same partition: a child is its parent
individualized and refined, and its parent again once the events of that
refinement are undone.  A refinement stops at the first trace event that
differs from the first path at its level, and the child is undone at once.
Sparse automorphisms are found without descending to a leaf (Darga,
Sakallah & Markov, Faster symmetry discovery using sparsity of symmetries,
DAC 2008): when every non-singleton cell of a node holds the same vertices
as on the first path, the map between the two nodes' singletons, fixing
everything else, is tested at once.  It is kept if it maps every moved
vertex's row onto its image's row; if it fails, no leaf below the node is
an automorphism, and the node is undone.

Refinement cannot split the root cell of a regular graph, and a rigid one
leaves nothing to prune, so each of its n-1 root candidates would be
refined and refuted on its own.  So when the refined root is not discrete,
its target cell, the first non-singleton cell of least size, whose members
are the root candidates, is split by its members' distance-layer profiles,
grown one BFS layer at a time until the cell splits (_profile_split), and
the root is refined again: the first path starts from this split root.
Automorphisms preserve distances, so a vertex's profile is an invariant,
every automorphism maps each cell of the split root onto itself, and
nothing found is dropped.  The target is chosen by cell positions and
sizes alone, as at every level of the search, so the split does not depend
on the labels either.  The other cells are not profiled: the 75 and 120
root cells of prism(path(150)) and of P5 x P80 are orbits already, and
profiling all their members would grow 300 and 400 balls to the budget
for nothing.  A regular graph's refined root is one cell, which is its
target.  The profiles stop before they would scan more
than PROFILE_WORK = 16 times the arcs, a little above the 4 and 10 times
after which rigid cubic and CFI graphs split.  The two orbits of GP(1000, 33)
part only at radius 29, after 1,030 times, far more than the few
refinements that the split would save there, and a vertex-transitive
graph, which never splits, pays at most the budget.  Past the budget the
root stays as refined, and orbit pruning and the trace refute its
candidates one by one.  nauty applies vertex invariants the same way,
once, at a chosen level and with a bound on their radius (McKay & Piperno,
Practical graph isomorphism II, 2014, on invarproc and invararg).

The orbits are the trees of one forest over the input vertices, which
every generator joins its (vertex, image) pairs into when it is made, as
nauty joins generator cycles in its orbits array (McKay & Piperno 2014);
each root is the smallest member of its tree.  The search reads a quotient
vertex's orbit as the tree of the first vertex of its block.  That is
sound.  A search generator is lifted by position, blocks[q] onto
blocks[r], so the tree of blocks[q][0] holds blocks[r][0] for every r in
q's quotient orbit.  A twin generator permutes vertices inside what becomes
one quotient vertex's block, and a search generator maps each block onto a
block of the same quotient orbit, so no tree reaches the first vertex of a
quotient vertex outside that orbit.  Every generator found so far fixes
the base vertices above the level being tried, so it maps that level's
cell onto itself and the base vertex's orbit lies in the cell.  The group
order is the product over levels of the number of the cell's members in
the base vertex's tree when its level finishes, times (class size)! for
every twin class of every round; a fold adds no factor.  Once the search
ends, the trees are the components of all generators' pairs: the orbits
of the group they generate, which is Aut.

Isomorphism of two connected digraphs a and b is the automorphism search
of their disjoint union (McKay & Piperno 2014), and a swap is a generator
that moves vertex 0 into b: generators that keep the two sides generate
only automorphisms that keep them, so one is found iff a and b are
isomorphic.  The groups of both sides are found first, and they prune the
subtrees of the root's candidates in b.

A search has a single leaf when it found no generator, so no twin round
changed its input, and the first path starts from a discrete root, refined
or split.  Its group is then trivial, as a discrete partition that every
automorphism maps onto itself is fixed pointwise.  The order of that leaf,
each quotient vertex expanded to its block, is canonical.  The root is one
colour, refinement orders the fragments of a cell by counts alone, and
_profile_split by profiles, from the refined root, within a budget that
depends on layer sizes and degrees alone.  _fold names a layer's keys in
their sorted order and orders a block by its children's signatures, so a
fold's colours and blocks do not depend on the labels either.  So an
isomorphism of two such graphs maps the p-th vertex of one leaf to the
p-th of the other, and AutGroup.leaf hands that order to orbital
similarity, which then needs no search of the union.  For almost all
graphs colour refinement alone gives a discrete root (Babai, Erdos &
Selkow, SIAM J. Comput. 9, 1980), and a search tree of one leaf is the
base case of canonical labelling by IR (McKay & Piperno 2014).  Twins are
excluded as a swap of two twins is an automorphism, so the leaf's blocks
would match in more than one way.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, compress
from math import factorial
from operator import ne

from .graph_core import Frozen, Graph


class Partition(Frozen):
    """Ordered partition of {0, ..., n-1} into disjoint nonempty sorted cells of ints."""

    __slots__ = _fields = ("cells",)
    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: tuple[tuple[int, ...], ...]) -> None:
        if not all(cells):
            raise ValueError("empty cell in partition")
        if any(map(ne, map(list, cells), map(sorted, cells))):
            cell = next(c for c in cells if list(c) != sorted(c))
            raise ValueError(f"cell {cell} not sorted ascending")
        # One sort checks cover and disjointness: the members are 0..n-1, once each.
        members = sorted(chain.from_iterable(cells))
        if not set(map(type, members)) <= {int}:
            raise ValueError(f"cell member {next(v for v in members if type(v) is not int)!r} is not an int")
        if members != list(range(len(members))):
            if len(set(members)) < len(members):
                raise ValueError("cells are not disjoint")
            raise ValueError("cells do not cover a dense vertex range 0..n-1")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(map(tuple, map(sorted, cells))))

    @property
    def n(self) -> int:
        return sum(map(len, self.cells))

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
        return _canonical_partition(self.cells)


def _canonical_partition(cells: Iterable[Iterable[int]]) -> Partition:
    """Partition.from_cells(cells).canonical(), checked once."""
    # Disjoint sorted cells compare as their smallest vertices, and the
    # second sort is stable, so it keeps that order among cells of one size.
    return Partition(tuple(sorted(sorted(map(tuple, map(sorted, cells))), key=len, reverse=True)))


class AutGroup(Frozen):
    """Automorphism group given by generators, with order and vertex orbits.

    A generator is the tuple of its (v, image of v) pairs over the vertices
    it moves, in ascending v; every other vertex is fixed.  leaf is the
    vertices in a canonical order when the group is trivial and its search
    ended at a single leaf, else None (see automorphism_group).
    """

    __slots__ = _fields = ("generators", "order", "orbits", "leaf")
    _defaults = {"leaf": None}
    generators: tuple[tuple[tuple[int, int], ...], ...]
    order: int
    orbits: Partition
    leaf: tuple[int, ...] | None


def unit_partition(n: int) -> Partition:
    return Partition((tuple(range(n)),))


def _root(parent, v):
    """The root of v's tree in the forest `parent`, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _join(parent, a, b) -> None:
    """Join a's and b's trees under the smaller root, so every root stays its tree's least member."""
    a, b = _root(parent, a), _root(parent, b)
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


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

    def undo(self, trace: list, c: int) -> None:
        """Merge back the splits of `trace`, latest first, then the singleton
        that individualizing a member of the cell at c split off before it.
        A split left its first fragment at its cell's start and the others
        right after it; lab and pos keep their order within each cell."""
        lab, cell_of, clen = self.lab, self.cell_of, self.clen
        for _, start, sig in reversed(trace):
            end = start + sum(size for _, size in sig)
            for v in lab[start + clen[start] : end]:
                cell_of[v] = start
            clen[start] = end - start
            self.ncells -= len(sig) - 1
        cell_of[lab[c + clen[c]]] = c
        clen[c] += 1
        self.ncells -= 1

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
        """The start of the first non-singleton cell of minimum size, or -1
        if the partition is discrete."""
        clen = self.clen
        c, n = 0, len(self.lab)
        best, best_len = -1, n + 1
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

    def refine(self, adj: Sequence[Sequence[int]], splitters: Iterable[int], ref: list | None = None) -> list:
        """Refine to the coarsest equitable partition finer than self, and
        return the trace events made, in order.

        `splitters` must be the starts of the cells whose neighbour counts
        may not be constant on other cells.  Given a reference trace `ref`,
        it stops right after its first event that departs from ref, an event
        past ref's end included, and returns `ref` itself iff its events are
        ref's; either way, undoing the returned events takes back every split.
        """
        lab, pos, cell_of, clen = self.lab, self.pos, self.cell_of, self.clen
        n = len(lab)
        events: list = []
        queue = deque(splitters)
        queued = [False] * n
        for s in queue:
            queued[s] = True
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
                events.append(event)
                if ref is not None and (len(ref) < len(events) or ref[len(events) - 1] != event):
                    return events
                if queued[c]:
                    del frags[0]
                else:
                    # Counts into the first largest fragment follow from the others.
                    frags.remove(max(frags, key=clen.__getitem__))
                for f in frags:
                    queued[f] = True
                    queue.append(f)
        return ref if ref is not None and len(ref) == len(events) else events


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
    return _canonical_partition(cells.cells())


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


def _weight(row: tuple[int, ...], w: int) -> int:
    return bisect_right(row, w) - bisect_left(row, w)


def _fold(
    colour: Sequence, adj: Sequence[tuple[int, ...]], blocks: list[list[int]]
) -> tuple[list, list[tuple[int, ...]], list[list[int]]] | None:
    """The quotient with its pendant trees folded, as (colour, adj, blocks),
    or None if nothing folds.

    Leaves are peeled in layers: layer 0 holds the vertices whose row has
    one head, and a vertex joins layer k + 1 when, in layer k, all but one
    of its heads have been attached to it.  When a layer is signed, all
    children of its vertices are attached.  Each child c gets the signature
    (name of c, weight of c -> v, weight of v -> c), the name being a number
    for c's key, its colour with its children's sorted signatures, so that
    no colour nests once per tree level (a path would nest 1,000 deep,
    deeper than tuple comparison recurses).  Once every vertex of a layer is
    signed, the layer's new keys are numbered in sorted order, so no name
    depends on the labels.  If two signatures are equal, v keeps its
    children: they are open twins of the next twin round.  Otherwise v is
    attached to its last head p, unless p was a leaf of the same layer or an
    earlier one: then v and p form the centre edge of their tree, or p kept
    its children.  Every decision depends on layers and signatures only, so
    an automorphism of the quotient maps the folded quotient onto itself.  A
    vertex with children that is never attached folds them in the same way
    once the last layer is done.
    """
    n = len(adj)
    layer = [v for v, row in enumerate(adj) if row and row[0] == row[-1]]
    if not layer:
        return None
    depth = [-1] * n
    left = [-1] * n  # heads not attached to v, once counted
    for v in layer:
        depth[v] = 0
        left[v] = 1
    up = [-1] * n  # the vertex v is attached to
    children: dict[int, list[int]] = {}
    folds: dict[int, tuple] = {}  # sorted child signatures of a vertex that folds its children
    order: dict[int, list[int]] = {}  # its children in signature order
    names: dict = {}  # (colour, child signatures) -> name
    kept: set[int] = set()  # vertices that keep their children

    def finish(v: int) -> bool:
        """Sign v's children and say whether v folds them."""
        sigs: tuple = ()
        if v in children:
            row = adj[v]
            signed = sorted(
                ((names[colour[c], folds[c]], _weight(adj[c], v), _weight(row, c)), c)
                for c in children[v]
            )
            sigs = tuple(s for s, _ in signed)
            if len(set(sigs)) < len(sigs):
                kept.add(v)
                return False
            order[v] = [c for _, c in signed]
        folds[v] = sigs
        return True

    k = 0
    while layer:
        layer = [v for v in layer if finish(v)]
        for key in sorted({(colour[v], folds[v]) for v in layer}):
            names.setdefault(key, len(names))
        above = []
        for v in layer:
            if left[v] == 0:
                continue
            p = next(h for h in adj[v] if up[h] < 0)
            if 0 <= depth[p] <= k:
                continue
            up[v] = p
            children.setdefault(p, []).append(v)
            if left[p] < 0:
                left[p] = len(set(adj[p]))
            left[p] -= 1
            if left[p] == 1:
                depth[p] = k + 1
                above.append(p)
        layer, k = above, k + 1
    for p in children:
        if p not in folds and p not in kept:
            finish(p)
    stays = [up[v] < 0 or up[v] in kept for v in range(n)]
    if all(stays):
        return None
    index = [-1] * n
    rest = [v for v in range(n) if stays[v]]
    for i, v in enumerate(rest):
        index[v] = i
    folded_blocks = []
    for v in rest:
        block, stack = [], [v]
        while stack:
            u = stack.pop()
            block += blocks[u]
            stack += reversed(order.get(u, ()))
        folded_blocks.append(block)
    return (
        [(colour[v], folds.get(v, ())) for v in rest],
        [tuple(index[h] for h in adj[v] if stays[h]) for v in rest],
        folded_blocks,
    )


# The root split's budget, in arcs scanned per arc (see the module docstring).
PROFILE_WORK = 16


def _first_entry(row: Sequence[int]) -> tuple[int, int, int]:
    """Step 1's entry of a vertex's profile, from its row alone: the
    distinct heads, which make its first layer, the arcs to them beyond one
    per head, and 0, as layer 0 is the vertex alone, with no arc inside it."""
    new = len(set(row))
    return new, len(row) - new, 0


def _first_layer(row: Sequence[int]) -> list[int]:
    """A vertex's first layer: the distinct heads of its row, in first-seen order."""
    return list(dict.fromkeys(row))


def _profile_split(adj: Sequence[Sequence[int]], cell: list[int]) -> list[list[int]] | None:
    """The cell split by its members' distance-layer profiles, fragments in
    ascending profile order, or None if it does not split within
    PROFILE_WORK times the arcs of adj.

    Entry d of v's profile comes from the rows of layer d-1 of the BFS ball
    around v: the vertices of layer d, the arcs into layer d beyond one per
    vertex, and the arcs inside layer d-1.  All members grow by one layer
    per step until the cell splits; a member stops once its new layer is
    empty, with the last entry (0, 0, arcs inside its last layer).

    Step 1 reads each member's row alone (_first_entry), as layer 0, the
    member itself, has no arc inside it, and its first layer is listed only
    if step 2 runs.  From step 2 on, every arc has a reverse, so a head of
    an arc out of the last layer lies in that layer, the one before it or
    the next one.  So between steps a member keeps only its last two layers,
    never its ball, and marks them afresh when it grows.  A step scans at
    most the widest row for each vertex of the members' last layers, and no
    step starts whose bound, added to those of the steps before it, passes
    the budget; so the check counts layer sizes and scans no arc.  The bound
    and the budget depend on layer sizes and degrees alone, so whether the
    cell splits does not depend on the labels.
    """
    budget, widest = PROFILE_WORK * sum(map(len, adj)), max(map(len, adj))
    work = widest * len(cell)
    if work > budget:
        return None
    # The entries of the last step.  The members have agreed on every entry
    # so far, so they all get one at a step or none does, and that step's
    # entries alone split the cell, in ascending profile order.
    step = {v: _first_entry(adj[v]) for v in cell}
    frontier = sum(entry[0] for entry in step.values())
    # A growing member's previous layer and last layer, once step 2 runs.
    state: dict[int, tuple[list[int], list[int]]] | None = None
    # While a member grows, mark[w] is base for its last layer but one,
    # base + 1 for its last layer and base + 2 for the new one; every other
    # mark is below base, which moves past all marks before each member.
    mark = [-1] * len(adj)
    base = 0
    while len({step.get(v) for v in cell}) == 1:
        work += widest * frontier
        # frontier counts the last layers, so it is 0 once no member grows.
        if not frontier or work > budget:
            return None
        if state is None:
            state = {v: ([v], _first_layer(adj[v])) for v in cell if step[v][0]}
        step = {}
        frontier = 0
        for v, (previous, layer) in list(state.items()):
            base += 3
            for u in previous:
                mark[u] = base
            for u in layer:
                mark[u] = base + 1
            new: list[int] = []
            extra = inside = 0
            for u in layer:
                for w in adj[u]:
                    m = mark[w]
                    if m < base:
                        mark[w] = base + 2
                        new.append(w)
                    elif m == base + 2:
                        extra += 1
                    elif m == base + 1:
                        inside += 1
            step[v] = (len(new), extra, inside)
            if new:
                state[v] = (layer, new)
                frontier += len(new)
            else:
                del state[v]
    fragments: dict = {}
    for v in cell:
        fragments.setdefault(step.get(v), []).append(v)
    return [fragments[key] for key in sorted(fragments)]


def _other_orbits(cell: list[int], gens: list[dict[int, int]]) -> list[int]:
    """The smallest member of each orbit of gens on the sorted cell but
    cell[0]'s, in descending order; gens map the cell onto itself."""
    parent = {v: v for v in cell}
    for g in gens:
        for v in filter(g.__contains__, cell):
            _join(parent, v, g[v])
    # The roots are the smallest members, and cell[0] is its own orbit's.
    return [v for v in cell[:0:-1] if parent[v] == v]


class _AutSearch:
    """IR search for the automorphisms of a coloured digraph, on its twin quotient.

    colour[v] is any sortable value; vertices of one colour may be swapped,
    and cells start in ascending colour order.  adj[v] is the sorted tuple
    of the heads of v's arcs, each listed as often as the arc's weight, and
    never v itself.  The weight of (v, u) follows from that of (u, v) and
    the colours of u and v, with no arc back iff none forth: the reverse-arc
    rule.  Nothing here checks it.  A Graph's rows in one colour meet it, and
    so does the cell digraph of a divisor matrix that _check_divisor_matrix
    passed, whose colours carry the relative cell sizes and B_ii, because
    s_i B_ij = s_j B_ji.
    """

    def __init__(self, colour: Sequence, adj: Sequence[tuple[int, ...]]) -> None:
        self.heads = adj  # of the input, for the arc check
        self.generators: list[tuple[tuple[int, int], ...]] = []
        self.parent = list(range(len(adj)))  # the orbit forest (see the module docstring)
        # |Aut|: k! per twin class of k, times, once run ends, the base
        # vertex's orbit size per level.
        self.order = 1
        # blocks[q] lists the input vertices that quotient vertex q stands for,
        # in the order in which a permutation of the quotient lifts.
        blocks = [[v] for v in range(len(adj))]
        while True:
            classes = _twin_classes(colour, adj)
            if len(classes) == len(adj):
                if (folded := _fold(colour, adj, blocks)) is None:
                    break
                colour, adj, blocks = folded
                continue
            class_of = [0] * len(adj)
            for q, (_, members) in enumerate(classes):
                for v in members:
                    class_of[v] = q
                if len(members) > 1:
                    self.order *= factorial(len(members))
                    self._add_block_cycle([blocks[v] for v in members[:2]])
                    if len(members) > 2:
                        self._add_block_cycle([blocks[v] for v in members])
            # A representative has equal weights to every member of another
            # class, so its arcs to the representatives carry the quotient.
            rep = [members[0] for _, members in classes]
            adj = [tuple(class_of[w] for w in adj[r] if w == rep[class_of[w]]) for r in rep]
            colour = [(colour[members[0]], kind, len(members)) for kind, members in classes]
            blocks = [[v for w in members for v in blocks[w]] for _, members in classes]
        self.adj = adj
        self.blocks = blocks
        self.colour = colour
        # The quotient permutation of each generator the search found.
        self.images: list[dict[int, int]] = []

    def run(self) -> None:
        """Refine the root, split its target cell by distance profile if it
        is not discrete (_profile_split), search the first path from it in
        place, then walk back up, undoing each level's trace before its
        candidates are tried, deepest level first.  The first path is kept
        as its traces, targets and leaf.  Only the target cell's members,
        the root candidates, are profiled: the cell is chosen by position
        and size, and a profile is an invariant, so the split is canonical
        and drops no automorphism (see the module docstring)."""
        n = len(self.adj)
        colours: dict = {}
        for q, c in enumerate(self.colour):
            colours.setdefault(c, []).append(q)
        node = _Cells.from_cells(n, [colours[key] for key in sorted(colours)])
        node.refine(self.adj, node.starts())
        c = node.target()
        if c >= 0 and (fragments := _profile_split(self.adj, node.lab[c : c + node.clen[c]])) is not None:
            cells, i = node.cells(), node.starts().index(c)
            cells[i : i + 1] = fragments
            node = _Cells.from_cells(n, cells)
            node.refine(self.adj, node.starts())
        self.targets, self.first_traces = [node.target()], []
        while (c := self.targets[-1]) >= 0:
            self.first_traces.append(node.refine(self.adj, [node.individualize(min(node.lab[c : c + node.clen[c]]))]))
            self.targets.append(node.target())
        self.first_leaf, self.first_pos = node.lab[:], node.pos[:]
        orbit = self._orbit
        # Deepest level first: every generator found so far fixes the base
        # vertices above the level being tried.
        for level in reversed(range(len(self.first_traces))):
            c = self.targets[level]
            node.undo(self.first_traces[level], c)
            members = sorted(node.lab[c : c + node.clen[c]])
            # The orbits of candidates whose subtree held no automorphism,
            # by their roots: no other member of such an orbit has one.
            refuted: set[int] = set()
            for v in members[1:]:
                if (r := orbit(v)) in refuted or r == orbit(members[0]):
                    continue
                if self._try(node, v, level + 1):
                    refuted = {_root(self.parent, r) for r in refuted}
                else:
                    refuted.add(r)
            r = orbit(members[0])
            self.order *= sum(orbit(v) == r for v in members)

    def _orbit(self, q: int) -> int:
        """The root of quotient vertex q's orbit: the tree of its block's first vertex."""
        return _root(self.parent, self.blocks[q][0])

    def _add_block_cycle(self, cycle: list[list[int]]) -> None:
        image: dict[int, int] = {}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image.update(zip(a, b))
        self._add(image)

    def _add(self, image: dict[int, int]) -> None:
        """Keep a generator, given on the input vertices it moves, and join its pairs."""
        self.generators.append(tuple(sorted(image.items())))
        for v, w in image.items():
            _join(self.parent, v, w)

    def _try(self, node: _Cells, v: int, level: int) -> bool:
        """Depth-first search of the subtree of node + v, whose root is at
        `level`, for an automorphism; stops at the first one found, kept as
        the last generator, and says whether there was one.  A node tries
        its smallest child, then one child per other orbit of the generators
        that fix its path (see the module docstring).  Every child is made in
        node itself: individualized and refined against the first path's
        trace at its level, and undone, by exactly the events its refinement
        made, once that trace departs, its singletons give a candidate, or
        its subtree is done.  node ends with the cells it was given, though
        the order of the vertices within a cell may differ."""
        # An entry: its level, its children to try (popped from the end),
        # its sorted target cell until the first child is done, and the
        # generators that fix its path once those moving `unfixed` are dropped.
        stack = [[level, [v], None, self.images, ()]]
        while stack:
            entry = stack[-1]
            level, todo, cell, gens, unfixed = entry
            if not todo:
                if cell is None:
                    stack.pop()
                    if stack:
                        node.undo(self.first_traces[level - 2], self.targets[level - 2])
                else:
                    gens = [g for g in gens if g.keys().isdisjoint(unfixed)]
                    entry[1:] = _other_orbits(cell, gens), None, gens, ()
                continue
            u = todo.pop()
            c, ref = self.targets[level - 1], self.first_traces[level - 1]
            events = node.refine(self.adj, [node.individualize(u)], ref)
            if events is not ref:
                node.undo(events, c)
                continue
            image = self._singleton_map(node)
            if image is None:
                # Equal traces give the first path's cells, so its target too.
                t = self.targets[level]
                cell = sorted(node.lab[t : t + node.clen[t]])
                stack.append([level + 1, [cell[0]], cell, gens, (*unfixed, u)])
                continue
            kept = self._accept(image)
            node.undo(ref, c)
            if kept:
                for e, *_ in reversed(stack[1:]):
                    node.undo(self.first_traces[e - 2], self.targets[e - 2])
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
        the first leaf holds F's singletons at their positions, and F's cell
        of v is node's segment that holds v's position in the first leaf.

        Only the vertices whose cell in node is not their cell in F are
        visited, found by comparing the two in C.  Such a vertex v is either
        node's singleton at some position c, moved there from F's
        first_leaf[c], or it lies in a non-singleton cell of node that does
        not hold F's vertices, and then there is no candidate.  So a node
        costs O(n) in C and O(moved vertices) in Python, and the search keeps
        no cell array of F.

        If the candidate is not an automorphism, no leaf below node gives
        one: such an automorphism would map F onto node, so agree with the
        candidate on the singletons and map every non-singleton cell onto
        itself; and a singleton has arcs of one weight to all of a cell of an
        equitable partition, or none, so the candidate would keep every arc
        too.  The caller therefore abandons node when the candidate fails.
        """
        cell_of, clen, first_leaf = node.cell_of, node.clen, self.first_leaf
        first = map(cell_of.__getitem__, map(node.lab.__getitem__, self.first_pos))
        image = {}
        for v in compress(range(len(cell_of)), map(ne, cell_of, first)):
            c = cell_of[v]
            if clen[c] > 1:
                return None
            image[first_leaf[c]] = v
        return image

    def _accept(self, image: dict[int, int]) -> bool:
        """Lift a permutation of the quotient, given on the vertices it moves;
        keep it if it is an automorphism."""
        lifted: dict[int, int] = {}
        for q, r in image.items():
            lifted.update(zip(self.blocks[q], self.blocks[r]))
        if not self._is_automorphism(lifted):
            return False
        self._add(lifted)
        self.images.append(image)
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
        trees: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            trees.setdefault(_root(self.parent, v), []).append(v)
        return list(trees.values())

    def single_leaf(self) -> tuple[int, ...] | None:
        """After run, the input vertices in the order of the one leaf of the
        search tree, its discrete root, expanded through the blocks, if the
        search found no generator; else None."""
        if self.generators or self.targets[0] >= 0:
            return None
        return tuple(v for q in self.first_leaf for v in self.blocks[q])


@lru_cache(maxsize=256)
def automorphism_group(graph: Graph) -> AutGroup:
    """Generators, order, vertex orbits and single leaf of Aut(graph).

    The search runs on the iterated twin quotient with its pendant trees
    folded (see the module docstring).  Generators are in the sparse form
    of AutGroup.  Every generator from the search has passed an edge check
    on `graph`; each twin class of size k >= 2 adds a transposition and,
    for k >= 3, a k-cycle of its members' blocks.  The order is exact: the
    product over search levels of the base vertex's orbit size, times k!
    for every twin class.  Orbits come in canonical order.

    When the search found no generator and its root is discrete, `leaf`
    holds the vertices in the canonical order of that one leaf (see the
    module docstring), else None.  Two graphs with leaves are isomorphic iff
    mapping the p-th vertex of one leaf to the p-th of the other is an
    isomorphism, and that map is the only one, as both groups are trivial.
    Groups are cached; automorphism_group.cache_clear() clears them, leaves
    and all.
    """
    search = _AutSearch((0,) * graph.n, graph.adjacency)
    search.run()
    for g in search.generators:
        # A bijection of 0..n-1: its images are exactly the moved points.
        if sorted(w for _, w in g) != [v for v, _ in g] or any(v == w for v, w in g):
            raise ValueError(f"generator {g} is not a permutation of its moved points")
    return AutGroup(
        generators=tuple(search.generators),
        order=search.order,
        orbits=_canonical_partition(search.orbit_cells()),
        leaf=search.single_leaf(),
    )


def isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """An isomorphism from g onto h as the image of each vertex of g, or None.

    Decided for connected graphs only: ValueError unless g and h are
    connected Graphs, each of n >= 1 vertices as every Graph is.
    """
    if not all(isinstance(x, Graph) and x.connected for x in (g, h)):
        raise ValueError("isomorphism decided for connected graphs only")
    return _isomorphism(((0,) * g.n, g.adjacency), ((0,) * h.n, h.adjacency))


def _isomorphism(a: tuple, b: tuple) -> tuple[int, ...] | None:
    """An isomorphism from the connected coloured digraph a onto b, each given
    as (colour, rows) under the contract of _AutSearch, as the image of each
    vertex of a, or None.

    It is the first generator of the automorphism search of the union, b's
    vertices shifted past a's, that moves vertex 0 into b, restricted to a
    (see the module docstring); so when a and b have symmetry, both groups
    are found before it.
    """
    (colour_a, rows_a), (colour_b, rows_b) = a, b
    na = len(rows_a)
    if na != len(rows_b) or sorted(map(len, rows_a)) != sorted(map(len, rows_b)) or sorted(colour_a) != sorted(colour_b):
        return None
    search = _AutSearch([*colour_a, *colour_b], [*rows_a, *(tuple(w + na for w in row) for row in rows_b)])
    search.run()
    for g in search.generators:
        if (phi := _swap(g, na)) is not None:
            return phi
    return None


def _swap(g: tuple[tuple[int, int], ...], na: int) -> tuple[int, ...] | None:
    """a's images if g moves vertex 0 into b, else None.  Such a g moves all
    of a, so its first na pairs are a's vertices in order."""
    v, w = g[0]
    return tuple(w - na for _, w in g[:na]) if v == 0 and w >= na else None


def orbit_partition(graph: Graph) -> Partition:
    """Vertex orbits under Aut(graph), cells in canonical order."""
    return automorphism_group(graph).orbits
