"""Finite abstract simplicial complexes on ground set {0, ..., m-1}.

A complex is stored as the full set of its faces (sorted tuples of vertex
labels, always including the empty face), together with the ground size m.
Ground labels that appear in no face are "ghost" vertices; they are legal and
meaningful (a ghost changes polyhedral-product invariants), so m is carried
explicitly rather than inferred.

Besides the basic graph families, the module implements an iterated gluing
construction: n copies of a base complex K are chained along isomorphic full
subcomplexes L1, L2 of K, copy j+1 attached to copy j by an automorphism psi
carrying L1 to L2. Book graphs arise this way from a cycle glued along a path
through the cycle, and the planar book family gives an independent labelling
of the triangle-free members used by the series oracles.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParameters
from .records import record

Face = tuple[int, ...]


def _closure(facets: list[Face]) -> frozenset[Face]:
    faces: set[Face] = {()}
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(itertools.combinations(f, k))
    return frozenset(faces)


@record
class SimplicialComplex:
    """Immutable simplicial complex. faces holds every face, including ()."""

    ground_size: int
    faces: frozenset[Face]

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise InvalidParameters("ground_size must be nonnegative")
        if () not in self.faces:
            raise InvalidParameters("the empty face must be present")
        for f in self.faces:
            if list(f) != sorted(set(f)):
                raise InvalidParameters(f"face {f} is not a sorted duplicate-free tuple")
            if f and (f[0] < 0 or f[-1] >= self.ground_size):
                raise InvalidParameters(f"face {f} has labels outside 0..{self.ground_size - 1}")
            # downward closure: checked face by face so constructors cannot cheat
            for k in range(len(f)):
                if f[:k] + f[k + 1 :] not in self.faces:
                    raise InvalidParameters(f"closure violated: {f} present without a boundary face")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(f[0] for f in self.faces if len(f) == 1))

    @property
    def ghosts(self) -> tuple[int, ...]:
        used = set(self.vertices)
        return tuple(v for v in range(self.ground_size) if v not in used)

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def faces_of_size(self, k: int) -> list[Face]:
        return sorted(f for f in self.faces if len(f) == k)

    def facets(self) -> list[Face]:
        """Maximal nonempty faces, lexicographically sorted: the nonempty faces
        that are no boundary face of another face."""
        covered = {g[:k] + g[k + 1 :] for g in self.faces for k in range(len(g))}
        return sorted(f for f in self.faces if f and f not in covered)

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, f_1, ...) = face counts by cardinality, f_-1 = 1."""
        counts = [0] * (self.dim + 2)
        for f in self.faces:
            counts[len(f)] += 1
        return tuple(counts)

    def relabel(self, perm) -> "SimplicialComplex":
        """Apply a permutation of the ground set, perm[v] = new label of v."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ground_size)):
            raise InvalidParameters("perm is not a permutation of the ground set")
        moved = frozenset(tuple(sorted(perm[v] for v in f)) for f in self.faces)
        return SimplicialComplex(self.ground_size, moved)

    def is_flag(self) -> bool:
        """True when every set of pairwise adjacent vertices spans a face.

        Singleton sets are pairwise adjacent vacuously, so a ghost vertex
        already breaks flagness. Otherwise a least clique that is not a face,
        minus its top vertex, is a face f; so K is flag exactly when f + (v,)
        is a face for every face f and every v > max(f) adjacent to all of f.
        """
        if self.ghosts:
            return False
        adj = self._adjacency()
        return all(
            f + (v,) in self.faces
            for f in self.faces
            if f
            for v in adj[f[-1]]
            if v > f[-1] and adj[v].issuperset(f)
        )

    def is_chordal(self) -> bool:
        """True when the 1-skeleton has no induced cycle of length >= 4.

        A graph is chordal exactly when deleting simplicial vertices (those
        whose neighbours are pairwise adjacent), in any order, empties it
        (Fulkerson and Gross). Deleting a vertex can only make its neighbours
        simplicial, so only they are tested again.
        """
        adj = self._adjacency()
        todo = list(adj)
        while todo:
            v = todo.pop()
            nb = adj.get(v)
            if nb is not None and all(len(nb & adj[u]) == len(nb) - 1 for u in nb):
                del adj[v]
                for u in nb:
                    adj[u].discard(v)
                todo.extend(nb)
        return not adj

    def _adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for f in self.faces:
            if len(f) == 2:
                adj[f[0]].add(f[1])
                adj[f[1]].add(f[0])
        return adj

    def to_json_obj(self) -> dict:
        return {"m": self.ground_size, "facets": [list(f) for f in self.facets()]}


def from_facets(m: int, facets) -> SimplicialComplex:
    """Build the downward closure of the given faces on ground set size m."""
    fs = [tuple(sorted(set(f))) for f in facets]
    return SimplicialComplex(m, _closure(fs))


def from_json_obj(obj: dict) -> SimplicialComplex:
    try:
        m = obj["m"]
        facets = obj["facets"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameters("complex JSON must have keys 'm' and 'facets'") from exc
    if type(m) is not int or not isinstance(facets, list):
        raise InvalidParameters("complex JSON: 'm' must be an int, 'facets' a list")
    return from_facets(m, [json_labels(f, "each facet") for f in facets])


def json_labels(v, what: str) -> tuple[int, ...]:
    """A JSON list of int labels as a tuple (no bools, floats or strings)."""
    if not isinstance(v, list) or any(type(x) is not int for x in v):
        raise InvalidParameters(f"{what} must be a list of integer labels")
    return tuple(v)


def path_graph(l: int) -> SimplicialComplex:
    """Path with l edges on vertices 0..l."""
    if l < 1:
        raise InvalidParameters("path length must be at least 1")
    return from_facets(l + 1, [(i, i + 1) for i in range(l)])


def cycle_graph(l: int) -> SimplicialComplex:
    """Cycle with l edges on vertices 0..l-1."""
    if l < 3:
        raise InvalidParameters("cycle length must be at least 3")
    edges = [(i, i + 1) for i in range(l - 1)] + [(0, l - 1)]
    return from_facets(l, edges)


def disjoint_points(n: int) -> SimplicialComplex:
    if n < 1:
        raise InvalidParameters("need at least one point")
    return from_facets(n, [(i,) for i in range(n)])


def simplex(k: int) -> SimplicialComplex:
    """Full simplex on k+1 vertices."""
    if k < 0:
        raise InvalidParameters("simplex dimension must be nonnegative")
    return from_facets(k + 1, [tuple(range(k + 1))])


@record
class GluingSpec:
    """Data for chaining `copies` copies of `base` along L1 = full(sub_a) and
    L2 = full(sub_b), where psi is an automorphism of `base` swapping the two
    subsets. phi[j] relabels copy j+2 internally (identity when omitted)."""

    base: SimplicialComplex
    sub_a: tuple[int, ...]
    sub_b: tuple[int, ...]
    psi: tuple[int, ...]
    copies: int
    phi: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        m = self.base.ground_size
        object.__setattr__(self, "sub_a", tuple(sorted(set(self.sub_a))))
        object.__setattr__(self, "sub_b", tuple(sorted(set(self.sub_b))))
        object.__setattr__(self, "psi", tuple(self.psi))
        if self.copies < 2:
            raise InvalidParameters("gluing needs at least two copies")
        for sub in (self.sub_a, self.sub_b):
            if not sub or any(v < 0 or v >= m for v in sub):
                raise InvalidParameters("glued subsets must be nonempty subsets of the ground set")
        if sorted(self.psi) != list(range(m)):
            raise InvalidParameters("psi is not a permutation of the ground set")
        if self.base.relabel(self.psi).faces != self.base.faces:
            raise InvalidParameters("psi is not an automorphism of the base")
        if tuple(sorted(self.psi[v] for v in self.sub_a)) != self.sub_b:
            raise InvalidParameters("psi does not carry sub_a onto sub_b")
        if tuple(sorted(self.psi[v] for v in self.sub_b)) != self.sub_a:
            raise InvalidParameters("psi does not carry sub_b onto sub_a")
        if not self.phi:
            ident = tuple(range(m))
            object.__setattr__(self, "phi", tuple(ident for _ in range(self.copies - 1)))
        else:
            object.__setattr__(self, "phi", tuple(tuple(p) for p in self.phi))
        if len(self.phi) != self.copies - 1:
            raise InvalidParameters("phi must list one relabelling per copy beyond the first")
        for p in self.phi:
            if sorted(p) != list(range(m)):
                raise InvalidParameters("each phi entry must be a bijection of the ground set")


def glue(spec: GluingSpec) -> SimplicialComplex:
    """Chain the copies. Copy 1 keeps the base labels. Copy c is attached to
    copy c-1 by identifying, for each v in sub_b, the copy-(c-1) vertex at
    phi_{c-1}(v) with the copy-c vertex at phi_c(psi(v)). Unidentified
    vertices of copy c receive fresh labels in ascending order of their base
    preimage."""
    m = spec.base.ground_size
    phis = (tuple(range(m)),) + spec.phi
    label: dict[tuple[int, int], int] = {(1, v): v for v in range(m)}
    next_label = m
    faces: set[Face] = set(spec.base.faces)
    for c in range(2, spec.copies + 1):
        prev_phi, cur_phi = phis[c - 2], phis[c - 1]
        shared = {}
        for v in spec.sub_b:
            shared[cur_phi[spec.psi[v]]] = label[(c - 1, prev_phi[v])]
        inv_cur = {cur_phi[v]: v for v in range(m)}
        for w in sorted(set(range(m)) - set(shared), key=lambda w: inv_cur[w]):
            shared[w] = next_label
            next_label += 1
        for w, lab in shared.items():
            label[(c, w)] = lab
        for f in spec.base.faces:
            faces.add(tuple(sorted(label[(c, cur_phi[v])] for v in f)))
    return SimplicialComplex(next_label, frozenset(faces))


def book_graph(n: int, l: int, p: int) -> SimplicialComplex:
    """p copies of the l-cycle glued along the path 0..n through the cycle."""
    if l < 3:
        raise InvalidParameters("cycle length must be at least 3")
    if not 1 <= n <= l - 2:
        raise InvalidParameters("spine length must satisfy 1 <= n <= l-2")
    if p < 2:
        raise InvalidParameters("a book needs at least two pages")
    cyc = cycle_graph(l)
    sub = tuple(range(n + 1))
    return glue(GluingSpec(cyc, sub, sub, tuple(range(l)), p))


def planar_book(l: int, p: int) -> SimplicialComplex:
    """p+1 internally disjoint paths of length l sharing endpoints 0 and 1.

    Isomorphic to book_graph(l, 2l, p) but labelled independently so the two
    constructions can cross-check each other.
    """
    if l < 2:
        raise InvalidParameters("path length must be at least 2")
    if p < 2:
        raise InvalidParameters("need at least two pages")
    edges = []
    nxt = 2
    for _ in range(p + 1):
        chain = [0] + list(range(nxt, nxt + l - 1)) + [1]
        nxt += l - 1
        edges.extend((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
    return from_facets(nxt, edges)
