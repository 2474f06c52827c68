"""Simplicial complexes, graph families, gluings and isomorphism checks."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyloop.complexes import (
    GluingSpec,
    SimplicialComplex,
    book_graph,
    cycle_graph,
    disjoint_points,
    from_facets,
    from_json_obj,
    glue,
    glue_from_json_obj,
    path_graph,
    planar_book,
    simplex,
)
from polyloop.errors import InvalidParameters

import complexes_reference as reference
from complexes_reference import is_isomorphic
from homology_reference import full_subcomplex


st_complex = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True),
        min_size=0,
        max_size=4,
    ).map(lambda facets: from_facets(m, facets))
)


def test_families_f_vectors():
    assert path_graph(3).f_vector() == (1, 4, 3)
    assert cycle_graph(4).f_vector() == (1, 4, 4)
    assert disjoint_points(3).f_vector() == (1, 3)
    assert simplex(2).f_vector() == (1, 3, 3, 1)
    assert simplex(0).f_vector() == (1, 1)


def test_family_validation():
    with pytest.raises(InvalidParameters):
        path_graph(0)
    with pytest.raises(InvalidParameters):
        cycle_graph(2)
    with pytest.raises(InvalidParameters):
        disjoint_points(0)
    with pytest.raises(InvalidParameters):
        simplex(-1)


def test_closure_validation():
    with pytest.raises(InvalidParameters):
        SimplicialComplex(3, frozenset({(), (0, 1)}))  # missing the vertices
    K = from_facets(3, [(0, 1)])
    assert (0,) in K.faces and (1,) in K.faces and () in K.faces


def test_face_ordering_validation():
    with pytest.raises(InvalidParameters):
        SimplicialComplex(2, frozenset({(), (0,), (1,), (1, 0)}))
    # from_facets normalizes sloppy input instead of rejecting it
    assert from_facets(2, [(0, 0)]) == from_facets(2, [(0,)])
    with pytest.raises(InvalidParameters):
        from_facets(2, [(0, 5)])


def test_ghosts_and_vertices():
    K = from_facets(4, [(0, 2)])
    assert K.vertices == (0, 2)
    assert K.ghosts == (1, 3)
    assert K.dim == 1
    assert disjoint_points(2).ghosts == ()
    assert K.ghost_note() == "ghost vertices (1, 3)" and disjoint_points(2).ghost_note() == ""
    many = from_facets(10**9, [(0, 1)])
    assert many.ghost_note() == "999999998 ghost vertices, first (2, 3, 4, 5, 6, 7, 8, 9, 10, 11)"


def test_empty_complex():
    K = from_facets(0, [])
    assert K.f_vector() == (1,)
    assert K.dim == -1
    assert K.facets() == []


def test_facets_and_faces_of_size():
    K = path_graph(2)
    assert K.facets() == [(0, 1), (1, 2)]
    assert K.faces_of_size(1) == [(0,), (1,), (2,)]
    assert K.faces_of_size(0) == [()]


def test_full_subcomplex_path():
    K = path_graph(3)
    sub = full_subcomplex(K, [0, 1, 3])
    # vertices relabelled order preserving: 0->0, 1->1, 3->2
    assert sub.ground_size == 3
    assert sub.facets() == [(0, 1), (2,)]


def test_full_subcomplex_rejects_bad_labels():
    with pytest.raises(InvalidParameters):
        full_subcomplex(path_graph(2), [0, 7])
    with pytest.raises(InvalidParameters):
        full_subcomplex(path_graph(2), [-1])
    # duplicate labels collapse, matching the set semantics of the docstring
    K = path_graph(2)
    assert full_subcomplex(K, [0, 0]) == full_subcomplex(K, [0])


def test_relabel_roundtrip():
    K = path_graph(3)
    perm = (2, 0, 3, 1)
    L = K.relabel(perm)
    inverse = [0] * 4
    for i, p in enumerate(perm):
        inverse[p] = i
    assert L.relabel(inverse) == K
    assert L.f_vector() == K.f_vector()


def test_relabel_validation():
    with pytest.raises(InvalidParameters):
        path_graph(2).relabel((0, 0, 1))
    with pytest.raises(InvalidParameters):
        path_graph(2).relabel((0, 1))


@given(st_complex, st.randoms(use_true_random=False))
def test_relabel_preserves_f_vector(K, rng):
    perm = list(range(K.ground_size))
    rng.shuffle(perm)
    assert K.relabel(perm).f_vector() == K.f_vector()


@given(st_complex)
def test_full_subcomplex_of_everything_is_identity(K):
    assert full_subcomplex(K, range(K.ground_size)) == K


@given(st_complex)
def test_json_roundtrip(K):
    assert from_json_obj(K.to_json_obj()) == K


def test_json_shape():
    obj = path_graph(1).to_json_obj()
    assert obj == {"m": 2, "facets": [[0, 1]]}
    with pytest.raises(InvalidParameters, match="keys 'm' and 'facets'"):
        from_json_obj([2, [[0, 1]]])


def test_is_flag_families():
    assert path_graph(4).is_flag()
    assert cycle_graph(4).is_flag()
    assert cycle_graph(5).is_flag()
    assert not cycle_graph(3).is_flag()  # empty triangle
    assert simplex(3).is_flag()
    assert disjoint_points(3).is_flag()


def test_is_chordal():
    assert path_graph(5).is_chordal()
    assert disjoint_points(4).is_chordal()
    assert simplex(3).is_chordal()
    assert from_facets(0, []).is_chordal()
    assert not cycle_graph(4).is_chordal()
    assert not cycle_graph(7).is_chordal()
    # a 4-cycle with a chord is chordal; a 5-cycle with one chord is not
    assert from_facets(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]).is_chordal()
    assert not from_facets(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]).is_chordal()


def _has_induced_long_cycle(K):
    """Brute force: some vertex set of size >= 4 induces a cycle."""
    adj = K._adjacency()
    for r in range(4, len(adj) + 1):
        for sub in itertools.combinations(adj, r):
            inside = set(sub)
            if any(len(adj[v] & inside) != 2 for v in sub):
                continue
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                for u in adj[stack.pop()] & inside - seen:
                    seen.add(u)
                    stack.append(u)
            if seen == inside:
                return True
    return False


def test_is_chordal_matches_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(0, 7)
        pairs = list(itertools.combinations(range(m), 2))
        edges = [e for e in pairs if rng.random() < rng.choice((0.3, 0.5, 0.7))]
        K = from_facets(m, edges + [(v,) for v in range(m)])
        assert K.is_chordal() == (not _has_induced_long_cycle(K)), edges


@st.composite
def st_sweep_complex(draw):
    """Complexes of dimension up to 3 with ghosts, clique complexes of random
    graphs (flag unless a vertex is a ghost), and clique complexes with one
    facet removed (not flag when that facet has three or more vertices)."""
    m = draw(st.integers(0, 7))
    if m == 0 or draw(st.booleans()):
        facets = draw(st.lists(
            st.lists(st.integers(0, max(m - 1, 0)), min_size=1, max_size=4, unique=True),
            max_size=6 if m else 0,
        ))
        return from_facets(m, facets)
    present = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    pairs = list(itertools.combinations(present, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, k in zip(pairs, keep) if k}
    cliques = [
        c for r in range(1, len(present) + 1) for c in itertools.combinations(present, r)
        if all(e in edges for e in itertools.combinations(c, 2))
    ]
    K = from_facets(m, cliques)
    if draw(st.booleans()):
        drop = draw(st.sampled_from(reference.facets(K)))
        K = SimplicialComplex(m, K.faces - {drop})
    return K


def _every_clique_is_a_face(K):
    """Brute force: every set of pairwise adjacent ground labels is a face
    (a single label is pairwise adjacent vacuously, so ghosts fail)."""
    return all(
        c in K.faces
        for r in range(1, K.ground_size + 1)
        for c in itertools.combinations(range(K.ground_size), r)
        if all(e in K.faces for e in itertools.combinations(c, 2))
    )


@settings(max_examples=400)
@given(st_sweep_complex())
def test_predicates_match_reference_and_definitions(K):
    facets = K.facets()
    assert facets == reference.facets(K)
    assert from_facets(K.ground_size, facets) == K
    assert not any(set(f) < set(g) for f in facets for g in facets)
    assert K.is_flag() == reference.is_flag(K) == _every_clique_is_a_face(K)
    assert K.is_chordal() == reference.is_chordal(K) == (not _has_induced_long_cycle(K))


def test_is_flag_rejects_ghosts():
    K = from_facets(3, [(0, 1)])
    assert not K.is_flag()


def test_glue_two_edges_makes_a_path():
    # two segments glued end to end
    spec = GluingSpec(
        base=path_graph(1), sub_a=(0,), sub_b=(1,), psi=(1, 0), copies=2
    )
    L = glue(spec)
    assert is_isomorphic(L, path_graph(2))


def test_glue_label_convention():
    # copy 1 keeps its labels; fresh labels continue upward
    spec = GluingSpec(
        base=path_graph(2), sub_a=(0,), sub_b=(2,), psi=(2, 1, 0), copies=3
    )
    L = glue(spec)
    assert L.ground_size == 7
    assert is_isomorphic(L, path_graph(6))
    assert (0, 1) in L.faces and (1, 2) in L.faces


def test_glue_validation():
    with pytest.raises(InvalidParameters):
        GluingSpec(path_graph(1), (0,), (1,), (1, 0), copies=1)
    with pytest.raises(InvalidParameters):
        # psi must swap the two subcomplexes
        GluingSpec(path_graph(2), (0,), (2,), (0, 1, 2), copies=2)
    with pytest.raises(InvalidParameters):
        # psi must be an automorphism
        GluingSpec(path_graph(2), (0,), (2,), (2, 2, 0), copies=2)
    with pytest.raises(InvalidParameters, match="sub_b onto sub_a"):
        # a 3-cycle of the triangle carries 0 to 1 but 1 to 2, not back to 0
        GluingSpec(cycle_graph(3), (0,), (1,), (1, 2, 0), copies=2)


# bases of the glue sweep: cycles, paths, and three complexes with triangles:
# the boundary of the tetrahedron, two disjoint triangles, and a triangle with
# a pendant edge and a ghost vertex
_GLUE_BASES = (
    [cycle_graph(l) for l in range(3, 8)]
    + [path_graph(l) for l in range(1, 6)]
    + [from_facets(4, itertools.combinations(range(4), 3)),
       from_facets(6, [(0, 1, 2), (3, 4, 5)]), from_facets(5, [(0, 1, 2), (2, 3)])]
)


def _glue_specs(K):
    """Every spec on K: each automorphism psi, each nonempty sub_a that psi
    squared fixes (so sub_b = psi(sub_a) is carried back onto it), copies 2, 3
    and 5."""
    m = K.ground_size
    for psi in itertools.permutations(range(m)):
        if K.relabel(psi).faces != K.faces:
            continue
        for k in range(1, m + 1):
            for sub_a in itertools.combinations(range(m), k):
                sub_b = tuple(sorted(psi[v] for v in sub_a))
                if tuple(sorted(psi[v] for v in sub_b)) == sub_a:
                    for copies in (2, 3, 5):
                        yield GluingSpec(K, sub_a, sub_b, psi, copies)


def test_glue_equals_the_reference_under_any_relabelling_of_the_copies():
    # the earlier glue relabelled copy j+2 by phi[j] in its faces and in its
    # identification alike, so no phi changes the glued complex
    rng = random.Random(29)

    def random_phi(spec):
        perms = [list(range(spec.base.ground_size)) for _ in range(spec.copies - 1)]
        for p in perms:
            rng.shuffle(p)
        return tuple(map(tuple, perms))

    specs = [spec for K in _GLUE_BASES for spec in _glue_specs(K)]
    assert len(specs) == 12_870
    for spec in specs:
        assert reference.glue(spec, random_phi(spec)) == glue(spec)
    for l in range(3, 10):
        cyc = cycle_graph(l)
        for n in range(1, min(5, l - 2) + 1):
            for p in range(2, 6):
                spec = GluingSpec(cyc, tuple(range(n + 1)), tuple(range(n + 1)), range(l), p)
                assert reference.glue(spec, random_phi(spec)) == book_graph(n, l, p)


@pytest.mark.parametrize("phi, message", [
    ([[0, 1]], "one relabelling per copy beyond the first"),
    ([[0, 1], [1, 1]], "each phi entry must be a bijection of the ground set"),
])
def test_glue_spec_json_refuses_a_malformed_phi(phi, message):
    # phi never changes the glued complex, but a JSON spec is still checked
    spec = {"base": {"m": 2, "facets": [[0, 1]]}, "sub_a": [0], "sub_b": [1], "psi": [1, 0],
            "copies": 3, "phi": phi}
    with pytest.raises(InvalidParameters, match=message):
        glue_from_json_obj(spec)


def test_book_graph_shapes():
    # p triangles sharing an edge: 3 + (parametrized) vertices
    B = book_graph(1, 3, 2)
    assert B.f_vector() == (1, 4, 5)
    # each extra 4-cycle page over a length-2 spine adds one vertex, two edges
    B = book_graph(2, 4, 3)
    assert B.f_vector() == (1, 6, 8)


def test_book_graph_validation():
    with pytest.raises(InvalidParameters):
        book_graph(0, 3, 2)
    with pytest.raises(InvalidParameters):
        book_graph(2, 3, 2)  # n must be at most l-2
    with pytest.raises(InvalidParameters):
        book_graph(1, 3, 1)
    with pytest.raises(InvalidParameters):
        book_graph(1, 2, 2)  # l must be at least 3


def test_planar_book_shapes():
    K = planar_book(2, 2)
    # 3 paths of length 2 sharing both endpoints
    assert K.f_vector() == (1, 2 + 3, 6)
    with pytest.raises(InvalidParameters):
        planar_book(1, 2)
    with pytest.raises(InvalidParameters):
        planar_book(2, 1)


def test_planar_book_is_the_doubled_length_book():
    for l, p in [(2, 2), (2, 3), (3, 2)]:
        assert is_isomorphic(planar_book(l, p), book_graph(l, 2 * l, p))


def test_is_isomorphic_positive_and_negative():
    K = path_graph(3)
    assert is_isomorphic(K, K.relabel((3, 1, 0, 2)))
    # star versus path: same f-vector, different shape
    star = from_facets(4, [(0, 1), (0, 2), (0, 3)])
    assert star.f_vector() == K.f_vector()
    assert not is_isomorphic(star, K)
    assert not is_isomorphic(path_graph(2), path_graph(3))


@given(st_complex, st.randoms(use_true_random=False))
def test_relabelled_complexes_are_isomorphic(K, rng):
    perm = list(range(K.ground_size))
    rng.shuffle(perm)
    assert is_isomorphic(K, K.relabel(perm))
