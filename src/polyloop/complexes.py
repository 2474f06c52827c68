"""Finite abstract simplicial complexes on ground set {0, ..., m-1}.

A complex is stored as the full set of its faces (sorted tuples of vertex
labels, always including the empty face), together with the ground size m.
Ground labels that appear in no face are "ghost" vertices; they are legal and
meaningful (a ghost changes polyhedral-product invariants), so m is carried
explicitly rather than inferred.

Besides the basic graph families, the module implements an iterated gluing
construction: n copies of a base complex K chained along isomorphic full
subcomplexes L1, L2 of K by an automorphism psi carrying L1 to L2, with one
label list rewritten per copy. Book graphs arise this way from a cycle glued
along a path through the cycle, and the planar book family gives an
independent labelling of the triangle-free members used by the series oracles.
"""

from __future__ import annotations

import itertools

from .errors import InvalidParameters
from .records import record

Face = tuple[int, ...]

# a refusal message lists at most this many ghost vertices
_GHOSTS_SHOWN = 10


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

    def ghost_note(self) -> str:
        """'' when every label is a vertex, else the ghosts for a message:
        all of them, or their total and the first _GHOSTS_SHOWN. O(faces)
        steps, however large ground_size is."""
        used = {f[0] for f in self.faces if len(f) == 1}
        total = self.ground_size - len(used)
        if not total:
            return ""
        ghosts = (v for v in range(self.ground_size) if v not in used)
        first = tuple(itertools.islice(ghosts, _GHOSTS_SHOWN))
        if total > _GHOSTS_SHOWN:
            return f"{total} ghost vertices, first {first}"
        return f"ghost vertices {first}"

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
        adj = self._adjacency()
        if len(adj) < self.ground_size:
            return False  # a ghost
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


def glue_from_json_obj(obj: dict) -> SimplicialComplex:
    """The complex glued by a JSON glue spec: a complex object under "base",
    label lists "sub_a", "sub_b", the int "copies", and optionally "psi"
    (default the identity) and "phi", one bijection of the base ground set per
    copy beyond the first. phi is checked, then dropped: relabelling a copy's
    vertices and its identification alike leaves the glued complex unchanged."""
    if not isinstance(obj, dict):
        raise InvalidParameters("glue spec must be a JSON object")
    try:
        base = from_json_obj(obj["base"])
        sub_a = json_labels(obj["sub_a"], "sub_a")
        sub_b = json_labels(obj["sub_b"], "sub_b")
        copies = obj["copies"]
    except KeyError as exc:
        raise InvalidParameters(f"glue spec is missing key {exc}") from exc
    if type(copies) is not int:
        raise InvalidParameters("copies must be an integer")
    psi = json_labels(obj.get("psi", list(range(base.ground_size))), "psi")
    phi = obj.get("phi", [])
    if not isinstance(phi, list):
        raise InvalidParameters("phi must be a list of relabellings")
    phi = [json_labels(p, "each phi entry") for p in phi]
    spec = GluingSpec(base, sub_a, sub_b, psi, copies)
    if phi and len(phi) != copies - 1:
        raise InvalidParameters("phi must list one relabelling per copy beyond the first")
    if any(sorted(p) != list(range(base.ground_size)) for p in phi):
        raise InvalidParameters("each phi entry must be a bijection of the ground set")
    return glue(spec)


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
    subsets: glue identifies psi(v) in each next copy with v, for v in sub_b."""

    base: SimplicialComplex
    sub_a: tuple[int, ...]
    sub_b: tuple[int, ...]
    psi: tuple[int, ...]
    copies: int

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


def glue(spec: GluingSpec) -> SimplicialComplex:
    """Chain the copies with one label list: label[v] is the glued label of
    base vertex v in the copy last attached, the identity for copy 1. Copy c
    gives its vertex psi(v) the label copy c-1 gave v, for each v in sub_b,
    and its other vertices fresh labels in ascending base order."""
    m = spec.base.ground_size
    label = list(range(m))
    fresh = itertools.count(m)
    faces: set[Face] = set(spec.base.faces)
    for _ in range(spec.copies - 1):
        shared = {spec.psi[v]: label[v] for v in spec.sub_b}
        label = [shared[v] if v in shared else next(fresh) for v in range(m)]
        faces.update(tuple(sorted(label[v] for v in f)) for f in spec.base.faces)
    return SimplicialComplex(next(fresh), frozenset(faces))


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
