"""Exact homology: ranks, reduced Betti numbers and the Hochster sum."""

import ast
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polyloop import decomp, homology, series, spacealg
from polyloop.complexes import (
    SimplicialComplex,
    book_graph,
    cycle_graph,
    disjoint_points,
    from_facets,
    path_graph,
    planar_book,
    simplex,
)
from polyloop.errors import GhostVertexError, GroundSizeLimitError, InvalidParameters
from polyloop.homology import (
    BettiTable,
    hochster_zk_betti,
    sparse_rank,
    zk_sphere_multiset,
)

from homology_reference import (
    _adjacency_masks,
    _components,
    bareiss_kernel_table,
    bareiss_rank,
    full_subcomplex,
    reduced_betti,
    subset_kernel_table,
)

st_complex = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True),
        min_size=0,
        max_size=4,
    ).map(lambda facets: from_facets(m, facets))
)

# the 6-vertex real projective plane: H_1 = Z/2, invisible to ranks over Q
RP2 = from_facets(6, [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
                      (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)])


def _cone(K):
    apex = K.ground_size
    return from_facets(apex + 1, [f + (apex,) for f in K.facets()])


BOUNDARY_TETRAHEDRON = from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

# a 2-complex whose full subcomplexes make the elimination reduce a row by a
# pivot other than +-1, which RP^2 and random complexes of this size rarely do
NON_UNIT_PIVOT = from_facets(8, [(v,) for v in range(8)] + [
    (0, 1, 4), (0, 1, 7), (0, 2, 6), (0, 2, 7), (0, 4, 6), (1, 4, 5),
    (1, 5, 7), (2, 4, 5), (2, 4, 7), (2, 5, 6), (2, 6, 7)])


def test_bareiss_rank_basics():
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 2], [3, 4]]) == 2
    assert bareiss_rank([[0, 1], [1, 0], [1, 1]]) == 2
    # rank over the rationals, not mod anything: 2x2 with determinant 2
    assert bareiss_rank([[1, 1], [1, -1]]) == 2


def test_bareiss_rank_rectangular():
    assert bareiss_rank([[1, 0, 1]]) == 1
    assert bareiss_rank([[1], [0], [2]]) == 1


st_matrix = st.integers(0, 8).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=8
    )
)


@settings(max_examples=300)
@given(st_matrix)
@example([[2, 3], [3, 5]])  # no unit pivot: the row is scaled, then divided by its gcd
@example([[2, 4, 6], [3, 6, 9], [1, 1, 1]])
def test_sparse_rank_matches_bareiss(rows):
    """The package's sparse elimination against the reference's dense
    Bareiss elimination; boundary matrices rarely reach a pivot other than
    +-1, so random integer matrices exercise that branch."""
    sparse = [{c: e for c, e in enumerate(row) if e} for row in rows]
    assert sparse_rank(sparse) == bareiss_rank(rows)


def test_reduced_betti_empty_and_point():
    empty = from_facets(0, [])
    assert reduced_betti(empty) == (1,)
    assert reduced_betti(simplex(0)) == (0, 0)


def test_reduced_betti_spheres_and_graphs():
    assert reduced_betti(disjoint_points(2)) == (0, 1)  # S^0
    assert reduced_betti(cycle_graph(3)) == (0, 0, 1)  # a circle
    assert reduced_betti(cycle_graph(5)) == (0, 0, 1)
    assert reduced_betti(path_graph(4)) == (0, 0, 0)  # contractible
    assert reduced_betti(simplex(3)) == (0, 0, 0, 0, 0)


def test_reduced_betti_wedge_of_circles():
    # theta graph: two vertices joined by three parallel length-2 paths
    K = planar_book(2, 2)
    assert reduced_betti(K) == (0, 0, 2)


def test_reduced_betti_counts_ghosts_as_nothing():
    K = from_facets(3, [(0, 1)])
    # a ghost vertex contributes no cells at all
    assert reduced_betti(K) == (0, 0, 0)


@given(st_complex)
def test_euler_characteristic(K):
    """Alternating sums of Betti numbers and face counts agree."""
    betti = reduced_betti(K)
    chi_h = sum((-1) ** j * b for j, b in enumerate(betti))
    chi_f = sum((-1) ** i * f for i, f in enumerate(K.f_vector()))
    assert chi_h == chi_f


def test_hochster_frozen_tables():
    assert hochster_zk_betti(cycle_graph(4)).ranks == {0: 1, 3: 2, 6: 1}
    assert hochster_zk_betti(path_graph(2)).ranks == {0: 1, 3: 1}
    assert hochster_zk_betti(disjoint_points(2)).ranks == {0: 1, 3: 1}
    assert hochster_zk_betti(path_graph(3)).ranks == {0: 1, 3: 3, 4: 2}
    # 5-cycle: connected sum of five copies of a product of two spheres
    assert hochster_zk_betti(cycle_graph(5)).ranks == {0: 1, 3: 5, 4: 5, 7: 1}
    # ranks over Q: the 2-torsion of RP^2 does not show
    assert hochster_zk_betti(RP2).ranks == {0: 1, 5: 10, 6: 15, 7: 6}
    assert hochster_zk_betti(BOUNDARY_TETRAHEDRON).ranks == {0: 1, 7: 1}  # Z_K = S^7


def test_hochster_simplex_is_trivial():
    assert hochster_zk_betti(simplex(2)).ranks == {0: 1}


def test_hochster_builds_boundary_rows_only_for_eliminations():
    # no connected vertex set of a simplex reaches sparse_rank, so none of
    # the boundary rows of its 2^16 faces is built
    K = simplex(15)
    tracemalloc.start()
    try:
        table = hochster_zk_betti(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.ranks == {0: 1}
    assert peak < 10 << 20, f"{peak} bytes"


def test_hochster_rejects_ghosts():
    K = from_facets(3, [(0, 1)])
    with pytest.raises(GhostVertexError):
        hochster_zk_betti(K)


def test_hochster_ground_size_cap():
    with pytest.raises(GroundSizeLimitError):
        hochster_zk_betti(path_graph(5), ceiling=4)


def test_hochster_relabel_invariance():
    K = cycle_graph(5)
    L = K.relabel((3, 0, 4, 1, 2))
    assert hochster_zk_betti(K).ranks == hochster_zk_betti(L).ranks


def test_betti_table_json():
    t = BettiTable(ranks={0: 1, 3: 2}, m=4)
    assert t.to_json_obj() == {"betti": {"0": 1, "3": 2}, "m": 4}


def test_zk_sphere_multiset_paths():
    assert zk_sphere_multiset(path_graph(2)).counts == {3: 1}
    assert zk_sphere_multiset(path_graph(3)).counts == {3: 3, 4: 2}
    assert zk_sphere_multiset(path_graph(4)).counts == {3: 6, 4: 8, 5: 3}
    ms = zk_sphere_multiset(path_graph(2))
    assert not ms.truncated and ms.max_dim is None


def test_zk_sphere_multiset_disjoint_points():
    # same wedge as the path case after the reduction step
    ms = zk_sphere_multiset(disjoint_points(3))
    assert ms.counts == {3: 3, 4: 2}


def test_zk_sphere_multiset_refuses_non_chordal():
    # Z of the 4-cycle is S^3 x S^3: its Betti table {3: 2, 6: 1} is no wedge
    for K in (cycle_graph(4), cycle_graph(5)):
        with pytest.raises(InvalidParameters):
            zk_sphere_multiset(K)
    # a non-flag complex is refused as well: the hollow triangle
    with pytest.raises(InvalidParameters):
        zk_sphere_multiset(cycle_graph(3))


def _hochster_reference(K):
    """Hochster's sum over full subcomplexes built one by one."""
    table = {}
    m = K.ground_size
    for mask in range(1 << m):
        labels = [v for v in range(m) if mask >> v & 1]
        for i, b in enumerate(reduced_betti(full_subcomplex(K, labels))):
            if b:
                j = i + len(labels)
                table[j] = table.get(j, 0) + b
    return table


def _random_complexes(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        facets = [(v,) for v in range(m)]  # every label is a vertex: no ghosts
        for _ in range(rng.randint(0, 6)):
            facets.append(tuple(rng.sample(range(m), rng.randint(1, min(m, 4)))))
        yield from_facets(m, facets)


def _clique_complex(m, edges):
    """The flag complex whose faces are the cliques of the graph."""
    nbrs = [set() for _ in range(m)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    cliques = [()]
    for v in range(m):
        cliques += [c + (v,) for c in cliques if nbrs[v].issuperset(c)]
    return from_facets(m, cliques[1:])


def _random_clique_complexes(count, seed):
    """Clique complexes of random graphs with m <= 12, of dimension 2 to 4."""
    rng = random.Random(seed)
    while count:
        m, p = rng.randint(4, 12), rng.uniform(0.3, 0.7)
        K = _clique_complex(m, [(a, b) for b in range(m) for a in range(b) if rng.random() < p])
        if 2 <= K.dim <= 4:
            count -= 1
            yield K


def _random_non_flag_complexes(count, seed):
    """Complexes with m <= 10 spanned by random triangles or tetrahedra."""
    rng = random.Random(seed)
    while count:
        m, size = rng.randint(4, 10), rng.choice((3, 4))
        facets = [tuple(rng.sample(range(m), size)) for _ in range(rng.randint(1, 2 * m))]
        K = from_facets(m, [(v,) for v in range(m)] + facets)
        if not K.is_flag():
            count -= 1
            yield K


def _spanning_connected_sets(K):
    """The vertex masks C, connected in the 1-skeleton, that span a 2-face."""
    adj = _adjacency_masks(K)
    triangles = [sum(1 << v for v in f) for f in K.faces_of_size(3)]
    return [C for C in range(1, 1 << K.ground_size)
            if _components(C, adj) == 1 and any(not t & ~C for t in triangles)]


def test_hochster_kernel_matches_full_subcomplex_reference(monkeypatch):
    fixed = [RP2, _cone(cycle_graph(6)), BOUNDARY_TETRAHEDRON, simplex(3), from_facets(0, [])]
    for K in fixed + list(_random_complexes(200, seed=2208)):
        assert hochster_zk_betti(K).ranks == _hochster_reference(K), K.facets()
    # the route against the earlier Bareiss kernel, kept verbatim in
    # homology_reference; an elimination calls sparse_rank once per face layer,
    # first on the boundaries of the triangles inside C, which are edge masks
    eliminated, scaled = [], []
    rank = homology.sparse_rank

    def counting_rank(rows):
        rows = list(rows)
        if rows and all(col.bit_count() == 2 for col in rows[0]):
            eliminated.append(rows)
        return rank(rows)

    monkeypatch.setattr(homology, "sparse_rank", counting_rank)
    monkeypatch.setattr(homology, "gcd", lambda *a: scaled.append(a) or math.gcd(*a))
    sweep = (list(_random_clique_complexes(30, seed=1604))
             + [RP2, _cone(RP2), NON_UNIT_PIVOT] + list(_random_non_flag_complexes(30, seed=4061)))
    assert {K.dim for K in sweep} == {2, 3, 4}
    spanning = 0
    for K in sweep:
        before = len(eliminated)
        assert hochster_zk_betti(K).ranks == bareiss_kernel_table(K), K.facets()
        sets = len(_spanning_connected_sets(K))
        assert len(eliminated) - before <= sets, K.facets()
        spanning += sets
    # some connected set spanning a 2-face was settled as a face or a cone,
    # with no elimination, others were eliminated, and a pivot other than +-1 was met
    assert 0 < len(eliminated) < spanning and scaled


def _random_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 12)
        pairs = [(a, b) for b in range(m) for a in range(b)]
        edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * m)))
        if m >= 3 and rng.random() < 0.5:
            a, b, c = rng.sample(range(m), 3)
            edges += [(a, b), (b, c), (a, c)]  # a hollow triangle: no 2-face
        # every label is a vertex, so the unused ones are isolated points
        yield from_facets(m, [(v,) for v in range(m)] + edges)


def test_graph_route_matches_the_subset_kernel_on_random_graphs():
    graphs = list(_random_graphs(220, seed=6021))
    assert any(K.dim == 1 and not K.is_flag() for K in graphs)  # hollow triangles occur
    assert any(any(len(f) == 1 for f in K.facets()) for K in graphs)  # isolated vertices occur
    for K in graphs:
        assert K.dim <= 1
        assert hochster_zk_betti(K).ranks == subset_kernel_table(K), K.facets()


def test_graph_route_matches_the_subset_kernel_on_every_family():
    families = (
        [path_graph(l) for l in range(1, 11)]
        + [cycle_graph(l) for l in range(3, 11)]
        + [disjoint_points(n) for n in range(1, 10)]
        + [book_graph(n, l, p) for l in (3, 4, 5) for n in range(1, l - 1) for p in (2, 3)]
        + [planar_book(l, p) for l, p in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))]
        + [from_facets(0, []), from_facets(10, [(a, b) for b in range(10) for a in range(b)])]
    )
    for K in families:
        assert hochster_zk_betti(K).ranks == subset_kernel_table(K), K.facets()


def test_graph_route_reaches_porter_closed_form_at_path_40():
    expected = {0: 1} | {k + 1: (k - 1) * math.comb(40, k) for k in range(2, 41)}
    assert hochster_zk_betti(path_graph(40), ceiling=41).ranks == expected


def test_graph_route_does_no_elimination(monkeypatch):
    def no_elimination(rows):
        raise AssertionError("a graph must not reach an elimination")

    graphs = [path_graph(9), cycle_graph(7), planar_book(3, 2)]
    expected = [subset_kernel_table(K) for K in graphs]
    monkeypatch.setattr(homology, "sparse_rank", no_elimination)
    assert [hochster_zk_betti(K).ranks for K in graphs] == expected
    # a 2-complex that is no cone still reaches one
    with pytest.raises(AssertionError, match="elimination"):
        hochster_zk_betti(RP2)


@st.composite
def st_hochster_complex(draw):
    """A complex on m <= 10 vertices: the clique complex of a random graph
    (flag), or one spanned by random faces of size up to 5 and boundaries of
    such faces (mostly not flag)."""
    m = draw(st.integers(1, 10))
    labels = st.integers(0, m - 1)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(labels, labels).filter(lambda e: e[0] != e[1]),
                              max_size=3 * m))
        return _clique_complex(m, edges)
    faces = [(v,) for v in range(m)]
    drawn = st.tuples(st.lists(labels, min_size=min(m, 2), max_size=5, unique=True), st.booleans())
    for f, hollow in draw(st.lists(drawn, min_size=1, max_size=2 * m)):
        # a hollow simplex: the boundary of f, a sphere of dimension |f| - 2
        faces += itertools.combinations(f, len(f) - 1) if hollow and len(f) > 2 else [f]
    return from_facets(m, faces)


@settings(max_examples=150)
@given(st_hochster_complex())
@example(RP2)
@example(_cone(RP2))
@example(NON_UNIT_PIVOT)
@example(_cone(cycle_graph(9)))
def test_hochster_matches_the_subset_kernel(K):
    """The connected-set route against the retired 2^m subset kernel."""
    assert hochster_zk_betti(K).ranks == subset_kernel_table(K)


def _star(l):
    return from_facets(l + 1, [(0, v) for v in range(1, l + 1)])


def _random_tree(l, seed):
    rng = random.Random(seed)
    return from_facets(l + 1, [(rng.randrange(v), v) for v in range(1, l + 1)])


@pytest.mark.parametrize("l", [5, 9, 14, 18])
def test_every_tree_has_the_table_of_the_path(l):
    """Every full subcomplex of a tree is a forest, so the table depends only
    on the number of edges. The star has 2^l connected sets, the path l^2/2."""
    path = hochster_zk_betti(path_graph(l)).ranks
    assert hochster_zk_betti(_star(l)).ranks == path
    assert hochster_zk_betti(_random_tree(l, seed=l)).ranks == path


@pytest.mark.parametrize("module", [homology, series])
def test_oracles_import_nothing_from_the_symbolic_layer(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            if node.module is None:
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    # nor a worker pool: the Hochster sum runs in one process
    assert not imported & {"spacealg", "decomp", "multiprocessing"}


@pytest.mark.parametrize("module", [spacealg, decomp])
def test_the_symbolic_layer_shares_only_the_series_kernels_with_the_oracles(module):
    # what it takes from series is under the Koszul oracle too, so a fault
    # there would reach both sides of verify koszul alike
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = {}  # the last part of each imported module -> the names taken from it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            names.setdefault(source, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.name.split(".")[-1], set()).add("*")
    assert names.get("series", set()) <= {"TruncSeries", "_invert", "_mul", "_pow"}
    assert "homology" not in names
    assert not names.get("", set()) & {"series", "homology"}


@st.composite
def st_chordal_clique_complex(draw, max_m=12, max_clique=5):
    """Clique complex of a chordal graph on m <= 12 vertices. Each new vertex v
    joins a clique C of earlier vertices (at most max_clique - 1 of them), so
    the reverse order is a perfect elimination order. Every clique lies in
    some C + v, and those are the facets."""
    m = draw(st.integers(1, max_m))
    cliques, facets = [()], []
    for v in range(m):
        base = draw(st.sampled_from([c for c in cliques if len(c) < max_clique]))
        facets.append(base + (v,))
        cliques += [c + (v,) for c in cliques if set(c) <= set(base)]
    return from_facets(m, facets)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _golod_sides(K):
    """(1+t)^d (1 - sum_j b_j t^(j-1)) and (1+t)^m P(-t), with P and d from the
    Koszul oracle's numerator and b_j from the Hochster oracle. They agree
    exactly when 1/H(-t) = (1+t)^m / (1 - sum_j b_j t^(j-1)), as it does for
    K flag with a chordal 1-skeleton: then Z_K is a wedge of spheres
    (Grbic, Panov, Theriault and Wu) and loops on DJ_K split as T^m x loops on Z_K."""
    p, d = series._hilbert_numerator(K)
    ranks = hochster_zk_betti(K).ranks
    wedge = [1] + [0] * max(ranks)
    for j, b in ranks.items():
        if j:
            wedge[j - 1] -= b
    m = K.ground_size
    lhs = _poly_mul([math.comb(d, i) for i in range(d + 1)], wedge)
    rhs = _poly_mul([math.comb(m, i) for i in range(m + 1)],
                    [c if k % 2 == 0 else -c for k, c in enumerate(p)])
    return lhs, rhs


@settings(max_examples=200)
@given(st_chordal_clique_complex())
def test_oracles_agree_on_chordal_clique_complexes(K):
    assert K.is_flag() and K.is_chordal()
    lhs, rhs = _golod_sides(K)
    assert lhs == rhs


@pytest.mark.parametrize("K", [cycle_graph(4), cycle_graph(5), planar_book(2, 2)])
def test_oracles_disagree_on_flag_complexes_that_are_not_chordal(K):
    # Z_K is no wedge of spheres here, so the identity must fail
    assert K.is_flag() and not K.is_chordal()
    lhs, rhs = _golod_sides(K)
    assert lhs != rhs
