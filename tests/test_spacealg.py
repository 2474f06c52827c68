"""The space expression algebra: rewriting, certificates, series, splittings."""

import copy
import math
import pickle
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spacealg_reference as ref
from series_reference import invert, mul, one
from spacealg_reference import from_json_obj, lyndon_words, to_json_obj

from polyloop.errors import (
    CeilingExceededError,
    InvalidParameters,
    SeriesDomainError,
)
from polyloop import spacealg
from polyloop.complexes import path_graph
from polyloop.decomp import porter_wedge
from polyloop.series import TruncSeries
from polyloop.spacealg import (
    INF,
    POINT,
    Cone,
    Atom,
    HalfSmash,
    Join,
    Loop,
    Point,
    Prod,
    Smash,
    Sphere,
    Susp,
    Wedge,
    _top_dim,
    atom,
    cp_infinity,
    desuspend,
    format_sexpr,
    hilton_milnor,
    james_split,
    normalize,
    parse_sexpr,
    poincare_series,
    sort_key,
    sphere_multiset_of,
    susp_wedge_min_dim,
    wedge_of_spheres_min_dim,
)

S1, S2, S3 = Sphere(1), Sphere(2), Sphere(3)


# --- strategies -----------------------------------------------------------

st_sphere = st.integers(1, 4).map(Sphere)


def _interleave(parts):
    """One n-ary node whose children repeat the same two objects in the
    drawn pattern, such as Wedge((t, u, t, t))."""
    cls, t, u, pattern = parts
    return cls(tuple(t if first else u for first in pattern))


def _terms(leaves, raw=False):
    """Recursive terms closed under the rewrite rules.

    Loop only wraps a suspension (so its series and sphere certificates
    exist) and HalfSmash keeps a recognisable suspension on the left. Some
    nodes repeat one child object among others, and some pair a subterm
    with a structurally equal but distinct copy of it. With raw, nodes also
    take the shapes of _raw_shapes."""
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: Wedge(ab)),
            st.tuples(sub, sub).map(lambda ab: Prod(ab)),
            st.tuples(sub, sub).map(lambda ab: Smash(ab)),
            sub.map(Susp),
            st.tuples(sub, sub).map(lambda ab: Join(*ab)),
            st.tuples(sub.map(Susp), sub).map(lambda ab: HalfSmash(*ab)),
            sub.map(lambda t: Loop(Susp(t))),
            sub.map(Cone),
            st.tuples(
                st.sampled_from([Wedge, Prod, Smash]),
                sub,
                sub,
                st.lists(st.booleans(), min_size=2, max_size=5),
            ).map(_interleave),
            st.tuples(st.sampled_from([Wedge, Prod, Smash]), sub).map(
                lambda ct: ct[0]((ct[1], copy.deepcopy(ct[1]), ct[1]))
            ),
            *(_raw_shapes(sub) if raw else ()),
        ),
        max_leaves=6,
    )


def _raw_shapes(sub):
    """Loops on a product, a join, a half-smash and the point, which only raw
    terms hold, so only the series rules for raw terms see them; and a
    half-smash whose left side, a wedge, is not a suspension, which
    normalize keeps and sorts by both of its sides."""
    return (
        st.tuples(sub, sub).map(lambda ab: Loop(Prod(ab))),
        st.tuples(sub, sub).map(lambda ab: Loop(Join(*ab))),
        st.tuples(sub.map(Susp), sub).map(lambda ab: Loop(HalfSmash(*ab))),
        st.just(Loop(POINT)),
        st.tuples(sub, sub, sub).map(lambda abc: HalfSmash(Wedge(abc[:2]), abc[2])),
    )


st_term = _terms(st.one_of(st_sphere, st.just(POINT)))

# Atoms with declared homology, including an empty declaration next to none:
# the two share a sort key but are different nodes.
st_atom = st.sampled_from(
    [
        atom("A", reduced={1: 1}),
        atom("A"),
        atom("A", reduced={}),
        atom("B", reduced={2: 1, 3: 2}),
        Atom("B", None, ((1, 1),)),
    ]
)
st_term_atoms = _terms(st.one_of(st_sphere, st.just(POINT), st_atom))
st_term_raw = _terms(st.one_of(st_sphere, st.just(POINT), st_atom), raw=True)


# --- normalize ------------------------------------------------------------

def test_normalize_smash_merges_spheres():
    assert normalize(Smash((S1, S2))) == S3
    assert normalize(Smash((S1, S1, S1))) == S3
    assert normalize(Smash((S2, atom("X"), S1))) == Smash((S3, atom("X")))


def test_normalize_units_and_absorption():
    assert normalize(Wedge((POINT, S2, POINT))) == S2
    assert normalize(Prod((POINT, S2))) == S2
    assert normalize(Smash((POINT, S2))) == POINT
    assert normalize(Cone(S2)) == POINT
    assert normalize(Wedge(())) == POINT
    assert normalize(Susp(POINT)) == POINT
    assert normalize(Loop(POINT)) == POINT


def test_normalize_flattens_and_sorts():
    e = Wedge((Wedge((S3, S1)), S2))
    assert normalize(e) == Wedge((S1, S2, S3))
    assert normalize(Wedge((S2, S1))) == normalize(Wedge((S1, S2)))


def test_normalize_susp():
    assert normalize(Susp(S2)) == S3
    assert normalize(Susp(Wedge((S1, S2)))) == Wedge((S2, S3))


def test_normalize_susp_of_product_splits():
    got = normalize(Susp(Prod((S1, S2))))
    assert got == Wedge((S2, S3, Sphere(4)))
    # inside a suspended wedge, the split product flattens into the wedge
    got = normalize(Susp(Wedge((Prod((S1, S1)), atom("X")))))
    assert got == Wedge((S2, S2, S3, Susp(atom("X"))))


def test_normalize_join_is_suspended_smash():
    assert normalize(Join(S1, S1)) == S3
    assert normalize(Join(S2, atom("X"))) == Susp(Smash((S2, atom("X"))))


def test_normalize_loop_distributes_over_prod():
    got = normalize(Loop(Prod((S2, S3))))
    assert got == Prod((Loop(S2), Loop(S3)))


def test_normalize_halfsmash_circle():
    # S^1 half-smash: one wedge summand is the suspension of the right side
    assert normalize(HalfSmash(S1, S2)) == Wedge((S1, S3))


def test_normalize_halfsmash_suspension():
    got = normalize(HalfSmash(S3, S1))
    assert got == Wedge((S3, Sphere(4)))
    sym = normalize(HalfSmash(Susp(atom("X")), atom("Y")))
    want = normalize(
        Wedge((Susp(atom("X")), Smash((atom("X"), Susp(atom("Y")))))),
    )
    assert sym == want


def test_normalize_halfsmash_opaque_left_stays():
    e = HalfSmash(atom("X"), S1)
    assert normalize(e) == e


@given(st_term)
def test_normalize_idempotent(e):
    n1 = normalize(e)
    assert normalize(n1) == n1


@settings(max_examples=300)
@given(st_term_atoms)
@example(HalfSmash(Susp(Wedge((Prod((S1, S1)),) * 2)), S1))
def test_normalize_matches_reference(e):
    """The one-walk normalize agrees with the copy-by-copy reference rewrite."""
    want = ref.normalize(e)
    got = normalize(e)
    assert got == want
    assert format_sexpr(got) == ref.format_sexpr(want)
    assert normalize(got) is got
    assert sort_key(got) == ref.sort_key(got)


@settings(max_examples=300)
@given(st.one_of(st_term, st_term_atoms))
@example(Susp(Wedge((Prod((S1, S2)), Loop(S3)))))
def test_normalize_is_a_fixpoint_of_the_reference_rewrite(e):
    # the one walk leaves nothing for a further copy-by-copy pass to do
    n = normalize(e)
    assert ref._rw(n) == n


@settings(max_examples=300)
@given(st_term_atoms)
@example(Smash((atom("B"), Susp(atom("A")))))
@example(Smash((atom("A"), Join(atom("B"), atom("A")))))
def test_desuspend_keeps_canonical_terms_canonical(e):
    c = normalize(e)
    d = desuspend(c)
    assume(d is not None)
    assert normalize(d) is d
    assert ref._rw(d) == d


@settings(max_examples=300)
@given(st_term_atoms)
def test_format_sexpr_matches_reference_unnormalized(e):
    # the emitter repeats consecutive runs only; it never reorders children
    assert format_sexpr(e) == ref.format_sexpr(e)


def test_format_sexpr_keeps_interleaved_order():
    t, u = Sphere(2), Loop(S3)
    e = Wedge((t, u, t, t))
    assert format_sexpr(e) == "(wedge (sphere 2) (loop (sphere 3)) (sphere 2) (sphere 2))"
    assert format_sexpr(Prod((u, u, t, u))) == ref.format_sexpr(Prod((u, u, t, u)))


def test_normalize_shares_repeated_subterms():
    big = Wedge(tuple([Susp(S2)] * 1000 + [Susp(S1)] * 1000))
    got = normalize(Loop(big))
    assert got == ref.normalize(Loop(big))
    # one object per distinct summand survives the rewrite
    assert len({id(a) for a in got.arg.args}) == 2
    # a canonical term comes back as itself, also inside a larger term
    assert normalize(got) is got
    outer = normalize(Prod((S1, got, S1)))
    assert any(a is got for a in outer.args)


def test_normalize_keeps_stable_order_of_equal_keys():
    # atom("A", reduced={}) and atom("A") share a sort key but differ
    a0, a1, s = atom("A", reduced={}), atom("A"), S2
    for args in [(a0, a1, a0), (a1, s, a0, a1, a1), (a0, a0, a1), (s, s, a1, a0)]:
        for cls in (Wedge, Prod):
            assert normalize(cls(args)) == ref.normalize(cls(args))
            assert normalize(Susp(cls(args))) == ref.normalize(Susp(cls(args)))


def test_caches_stay_out_of_value_semantics():
    e = Wedge((Loop(S3), Susp(S2), S2))
    fresh = Wedge((Loop(S3), Susp(S2), S2))
    n = normalize(e)
    sort_key(n)
    assert n == normalize(fresh) and hash(n) == hash(ref.normalize(fresh))
    assert repr(n) == repr(ref.normalize(fresh))
    assert to_json_obj(n) == to_json_obj(ref.normalize(fresh))
    back = pickle.loads(pickle.dumps(n))
    assert back == n
    assert not {"_key", "_canon"} & set(vars(back))
    assert not back._canon and back._key is None
    # a cached sort key changes neither equality nor hashing
    keyed, twin = Wedge((S2, S2, S3)), Wedge((S2, S2, S3))
    sort_key(keyed)
    assert keyed.runs == ((S2, 2), (S3, 1)) and twin._key is None
    assert keyed == twin and hash(keyed) == hash(twin) and repr(keyed) == repr(twin)


def test_runs_are_the_stored_form():
    t, u = Loop(S3), Susp(S2)
    for cls in (Wedge, Prod, Smash):
        e = cls((t, t, u, t))
        r = cls.of_runs([(t, 2), (u, 1), (t, 1)])
        assert e == r and hash(e) == hash(r)
        assert e.runs == r.runs == ((t, 2), (u, 1), (t, 1))
        assert e.args == r.args == (t, t, u, t)
        back = pickle.loads(pickle.dumps(r))
        assert back == e and back.args == e.args
        # zero counts drop out, and equal but distinct neighbours merge
        assert cls.of_runs([(t, 1), (u, 0), (copy.deepcopy(t), 3)]).runs == ((t, 4),)
        assert cls((u, copy.deepcopy(u), t)).runs == ((u, 2), (t, 1))
        assert cls.of_runs([(u, 0)]) == cls(())
    assert Wedge((t, u)) != Prod((t, u))


def test_other_value_types_pickle_round_trip():
    for value in (path_graph(4), TruncSeries(4, (1, 0, 3, -1, 7))):
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value and hash(back) == hash(value)
        assert vars(back) == vars(value)
    # the stored form is the field dict, in field order (recorded from the
    # frozen dataclass that TruncSeries used to be)
    assert pickle.dumps(TruncSeries(1, (1, 0)), protocol=4) == (
        b"\x80\x04\x95@\x00\x00\x00\x00\x00\x00\x00\x8c\x0fpolyloop.series\x94\x8c\x0bTruncSeries"
        b"\x94\x93\x94)\x81\x94}\x94(\x8c\x01n\x94K\x01\x8c\x06coeffs\x94K\x01K\x00\x86\x94ub."
    )


def test_susp_of_repeated_factors_walks_sub_multisets():
    got = normalize(Susp(Prod((S1,) * 16)))
    assert got == Wedge.of_runs([(Sphere(j + 1), math.comb(16, j)) for j in range(1, 17)])


def test_parse_shares_sphere_leaves():
    e = parse_sexpr("(wedge (sphere 3) (loop (sphere 2)) (sphere 3) (sphere 2))")
    assert e.args[0] is e.args[2]
    assert e.args[1].arg is e.args[3]
    other = parse_sexpr("(sphere 3)")
    assert other == e.args[0] and other is not e.args[0]


@given(st_term)
def test_normalize_preserves_series(e):
    assert poincare_series(e, 10) == poincare_series(normalize(e), 10)


@settings(max_examples=300)
@given(st_term_raw)
@example(Loop(Prod((S2, Loop(S3)))))
@example(Loop(POINT))
@example(Loop(Join(S1, atom("A", reduced={1: 1}))))
@example(Loop(HalfSmash(S2, S1)))
@example(Loop(Susp(Loop(Prod((S2, S3))))))
@example(Wedge((HalfSmash(Wedge((S1, S2)), S2), S3)))
def test_raw_series_agrees_with_the_normal_form(e):
    # sound but not complete: a raw term may be refused where its normal
    # form has a series, such as Loop(Susp(Join(POINT, atom("A", {1: 1}))))
    try:
        raw = poincare_series(e, 8)
    except SeriesDomainError:
        return
    assert poincare_series(normalize(e), 8) == raw


@given(st_term)
def test_sexpr_roundtrip(e):
    assert parse_sexpr(format_sexpr(e)) == e
    assert from_json_obj(to_json_obj(e)) == e


def test_sexpr_atom_quoting():
    # names survive the round-trip; homology declarations are engine-side
    # annotations and intentionally do not
    a = atom("page-fibre", reduced={2: 3}, loop_reduced={1: 1})
    back = parse_sexpr(format_sexpr(a))
    assert back == atom("page-fibre")
    assert format_sexpr(a) == '(atom "page-fibre")'


def test_parse_rejects_garbage():
    with pytest.raises(InvalidParameters):
        parse_sexpr("(wedge (sphere 3)")
    with pytest.raises(InvalidParameters):
        parse_sexpr("(frobnicate 3)")
    with pytest.raises(InvalidParameters):
        parse_sexpr("(sphere 0)")
    # an unmatched quote is refused, not skipped
    for text in ['(sphere "3)', '(wedge (sphere 2) " (sphere 3))', '(atom "X)', '"', '("',
                 "(", "(wedge (sphere 2) ("]:
        with pytest.raises(InvalidParameters):
            parse_sexpr(text)


def _nodes(e):
    """Every node of e in preorder, children in stored run order."""
    yield e
    if isinstance(e, (Wedge, Prod, Smash)):
        for a, _ in e.runs:
            yield from _nodes(a)
    elif isinstance(e, (Susp, Loop, Cone)):
        yield from _nodes(e.arg)
    elif isinstance(e, (Join, HalfSmash)):
        yield from _nodes(e.left)
        yield from _nodes(e.right)


def _read(parse, text):
    """The term parse reads, with the run count of each node and the leaf
    object behind each sphere, numbered by first appearance; or the type and
    message of the error it raises."""
    try:
        e = parse(text)
    except InvalidParameters as exc:
        return type(exc), str(exc)
    nodes = list(_nodes(e))
    leaf_ids = list(dict.fromkeys(id(n) for n in nodes if isinstance(n, Sphere)))
    return (e, [len(n.runs) for n in nodes if isinstance(n, (Wedge, Prod, Smash))],
            [leaf_ids.index(id(n)) for n in nodes if isinstance(n, Sphere)])


@given(st.one_of(st_term, st_term_atoms))
def test_parse_matches_the_reference_reader(e):
    text = format_sexpr(e)
    assert _read(parse_sexpr, text) == _read(ref.parse_sexpr, text)


@pytest.mark.parametrize(
    "text",
    [
        "(sphere  2)", "(sphere 03)", "(sphere 0)", "(sphere -1)", "(sphere 2 3)", "(sphere 2))",
        '(atom "x)', "(foo)", "(", "", "   ", ")", "point", "(point)", "(wedge)",
        "((sphere 3))", "(sphere 3)(sphere 3)", "(sphere\t3)", "(sphere +3)", "(sphere 1_0)",
        '(sphere "3")', "(sphere (sphere 3))", "(atom (sphere 3))", "(loop (sphere 2) (sphere 2))",
        "(sphere 123456789012345678)", "(sphere 1234567890123456789)",
        # past int()'s default limit of 4,300 digits
        pytest.param("(sphere 1" + "0" * 5000 + ")", id="5001-digit-dimension"),
        "(wedge (sphere 2) (sphere  2) (sphere 02) (sphere 3) (sphere 2))",
        '(wedge (sphere 2) " (sphere 3))', "(wedge (sphere 2) (", "(wedge (sphere 2)",
        "(smash (sphere 1) (loop (sphere 03)) (sphere 3) (sphere 3))",
        "(wedge (sphere 10) (sphere 1_0) (sphere 010) (sphere 10))",
    ],
)
def test_parse_of_odd_texts_matches_the_reference_reader(text):
    assert _read(parse_sexpr, text) == _read(ref.parse_sexpr, text)


# --- desuspension and certificates ----------------------------------------

def test_desuspend():
    assert desuspend(S1) is None
    assert desuspend(S2) == S1
    assert desuspend(Susp(atom("X"))) == atom("X")
    assert desuspend(POINT) == POINT
    assert desuspend(Wedge((S2, S3))) == Wedge((S1, S2))
    assert desuspend(atom("X")) is None


def test_desuspend_smash():
    # a smash desuspends whenever one factor does
    assert desuspend(Smash((S1, atom("X")))) == atom("X")
    got = desuspend(Smash((S2, atom("X"))))
    assert normalize(got) == Smash((S1, atom("X")))
    assert desuspend(Smash((atom("X"), atom("Y")))) is None


def test_wedge_of_spheres_certificate():
    assert wedge_of_spheres_min_dim(POINT) == INF
    assert wedge_of_spheres_min_dim(S2) == 2
    assert wedge_of_spheres_min_dim(Wedge((S2, S3))) == 2
    assert wedge_of_spheres_min_dim(Smash((S2, S3))) == 5
    assert wedge_of_spheres_min_dim(Susp(Wedge((S1, S1)))) == 2
    assert wedge_of_spheres_min_dim(atom("X")) is None
    assert wedge_of_spheres_min_dim(Prod((S2, S2))) is None


def test_susp_wedge_certificate():
    # B(e) certifies Susp(e) as a sphere wedge and reports dimensions there
    assert susp_wedge_min_dim(S1) == 2
    assert susp_wedge_min_dim(Loop(S2)) == 2
    assert susp_wedge_min_dim(Loop(S1)) is None
    assert susp_wedge_min_dim(Prod((Loop(S2), Loop(S3)))) == 2
    assert susp_wedge_min_dim(HalfSmash(S2, Loop(S2))) == 3


# --- series ---------------------------------------------------------------

def test_series_loops_on_spheres():
    assert poincare_series(Loop(S2), 5).coeffs == (1, 1, 1, 1, 1, 1)
    assert poincare_series(Loop(S3), 6).coeffs == (1, 0, 1, 0, 1, 0, 1)
    two = poincare_series(Loop(Wedge((S2, S2))), 4)
    assert two.coeffs == (1, 2, 4, 8, 16)


def test_series_torus_and_products():
    assert poincare_series(Prod((S1, S1, S1)), 4).coeffs == (1, 3, 3, 1, 0)
    assert poincare_series(Prod((Loop(S2), S1)), 3).coeffs == (1, 2, 2, 2)


def test_series_of_point_and_wedges():
    assert poincare_series(POINT, 3).coeffs == (1, 0, 0, 0)
    assert poincare_series(Wedge((S2, S2, S3)), 4).coeffs == (1, 0, 2, 1, 0)


def test_series_atom_declarations():
    assert poincare_series(atom("B", reduced={2: 1, 3: 2}), 4).coeffs == (1, 0, 1, 2, 0)
    cp = cp_infinity()
    assert poincare_series(Loop(cp), 4).coeffs == (1, 1, 0, 0, 0)
    with pytest.raises(SeriesDomainError):
        poincare_series(atom("X"), 4)
    with pytest.raises(SeriesDomainError):
        poincare_series(Loop(atom("X")), 4)


def test_series_rejects_non_simply_connected_loops():
    with pytest.raises(SeriesDomainError):
        poincare_series(Loop(Wedge((S1, S2))), 4)


def test_series_loop_precision_is_exact():
    # the inner series is computed one degree deeper per loop level, so the
    # top-degree coefficient is exact even through nesting
    e = Loop(Susp(Loop(S2)))
    got = poincare_series(e, 8)
    # Susp(Loop(S2)) has reduced series t^2+t^3+..., so loops on it invert
    # 1 - (t + t^2 + ...) = (1 - 2t)/(1 - t)
    want = mul(TruncSeries.of([1, -1], 8), invert(TruncSeries.of([1, -2], 8)))
    assert got == want


def test_series_repeated_factors_group():
    # distinct but equal objects must land in one exponentiation group
    factors = tuple(Loop(Sphere(2)) for _ in range(50))
    got = poincare_series(Prod(factors), 6)
    base = invert(TruncSeries.of([1, -1], 6))
    want = one(6)
    for _ in range(50):
        want = mul(want, base)
    assert got == want


def test_series_halfsmash_needs_suspension_left():
    with pytest.raises(SeriesDomainError):
        poincare_series(HalfSmash(atom("X", reduced={2: 1}), S2), 4)
    ok = poincare_series(HalfSmash(S2, S1), 4)
    assert ok.coeffs == (1, 0, 1, 1, 0)
    # a left side whose suspension is certified a wedge of spheres also has
    # free homology: (2t^2 + t^4)(1 + t)
    ok = poincare_series(HalfSmash(Prod((S2, S2)), S1), 6)
    assert ok.coeffs == (1, 0, 2, 2, 1, 1, 0)


# --- sphere enumeration ---------------------------------------------------

def test_sphere_multiset_wedge():
    ms = sphere_multiset_of(Wedge((S3, S3, Sphere(5))), 6)
    assert ms.counts == {3: 2, 5: 1}
    assert not ms.truncated


def test_sphere_multiset_smash_and_join():
    assert sphere_multiset_of(Smash((S2, S3)), 8).counts == {5: 1}
    assert sphere_multiset_of(Join(S1, S1), 8).counts == {3: 1}
    ms = sphere_multiset_of(Wedge((Smash((Wedge((S1, S2)), S2)),)), 8)
    assert ms.counts == {3: 1, 4: 1}


def test_sphere_multiset_truncation_flags():
    ms = sphere_multiset_of(Susp(Loop(S2)), 6)
    assert ms.counts == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    assert ms.truncated and ms.max_dim == 6


def test_sphere_multiset_rejects_unexpandable():
    with pytest.raises(CeilingExceededError):
        sphere_multiset_of(Loop(S2), 6)
    with pytest.raises(CeilingExceededError):
        sphere_multiset_of(Prod((S2, S2)), 6)
    with pytest.raises(InvalidParameters):
        sphere_multiset_of(S2, 0)


def test_sphere_multiset_halfsmash():
    # X |x Y = X wedge (X smash Y-ish) at the counting level
    ms = sphere_multiset_of(HalfSmash(Wedge((S3, S3)), S1), 8)
    assert ms.counts == {3: 2, 4: 2}


def test_sphere_multiset_point():
    ms = sphere_multiset_of(POINT, 4)
    assert ms.counts == {} and not ms.truncated


def test_top_dim():
    assert _top_dim(POINT) == 0 and _top_dim(Cone(S3)) == 0
    assert _top_dim(Wedge((S2, Sphere(5), S3))) == 5
    assert _top_dim(Smash((S2, Wedge((S1, S3))))) == 5
    assert _top_dim(Smash((S2, Cone(S3)))) == 0
    assert _top_dim(Prod((S2, S3, POINT))) == 5
    assert _top_dim(Join(S1, S2)) == 4 and _top_dim(Join(S1, POINT)) == 0
    assert _top_dim(HalfSmash(S2, S3)) == 5 and _top_dim(HalfSmash(POINT, S3)) == 0
    assert _top_dim(Susp(Loop(S2))) == INF and _top_dim(Susp(Loop(Cone(S2)))) == 0
    assert _top_dim(Smash((S2, Loop(S3)))) == INF


def test_sphere_multiset_answers_certified_terms():
    # the sparse engine moved only one suspension into a smash and refused
    # the loop left behind; Susp(T^2 ^ Loop(S^2)) has reduced series
    # t(2t + t^2) t/(1 - t)
    e = Susp(Smash((Prod((S1, S1)), Loop(Susp(S1)))))
    with pytest.raises(CeilingExceededError):
        ref.sphere_multiset_of(e, 8)
    ms = sphere_multiset_of(e, 8)
    assert ms.counts == {3: 2, 4: 3, 5: 3, 6: 3, 7: 3, 8: 3} and ms.truncated


def test_sphere_multiset_halfsmash_certified_after_suspension():
    e = Susp(HalfSmash(Prod((S2, S2)), Wedge((S1, S2))))
    for ceiling in (3, 6, 12):
        want = ref.sphere_multiset_of(e, ceiling)
        got = sphere_multiset_of(e, ceiling)
        assert (got.counts, got.truncated) == (want.counts, want.truncated)


def test_sphere_multiset_ignores_a_huge_ceiling(monkeypatch):
    # the series is dense in degree, so it must stop at the top sphere
    real = spacealg._red

    def bounded(e, n):
        assert n <= 7, f"series order {n} above the top sphere"
        return real(e, n)

    monkeypatch.setattr(spacealg, "_red", bounded)
    huge = sphere_multiset_of(porter_wedge(6), 10**9)
    assert huge.counts == sphere_multiset_of(porter_wedge(6), 8).counts
    assert huge.counts == {3: 15, 4: 40, 5: 45, 6: 24, 7: 5} and not huge.truncated


def _reference_or_none(fn, *args):
    try:
        return fn(*args)
    except CeilingExceededError:
        return None


def _check_sphere_multiset_against_reference(e, ceiling):
    want = _reference_or_none(ref.sphere_multiset_of, e, ceiling)
    if want is None:
        # the series answers only what the certificate covers
        try:
            sphere_multiset_of(e, ceiling)
        except CeilingExceededError:
            return
        assert wedge_of_spheres_min_dim(normalize(e)) is not None
        return
    got = sphere_multiset_of(e, ceiling)
    assert got.counts == want.counts
    assert got.truncated == want.truncated


@settings(max_examples=200)
@given(st_term, st.sampled_from([3, 6, 12]))
def test_sphere_multiset_matches_reference(e, ceiling):
    _check_sphere_multiset_against_reference(e, ceiling)


@settings(max_examples=200)
@given(st_term_atoms, st.sampled_from([3, 6, 12]))
def test_sphere_multiset_matches_reference_atoms(e, ceiling):
    _check_sphere_multiset_against_reference(e, ceiling)


# --- james ----------------------------------------------------------------

def test_james_split_sphere():
    assert james_split(S2, 8) == Wedge((S3, Sphere(5), Sphere(7)))
    assert james_split(S2, 3) == S3
    assert james_split(POINT, 5) == POINT


def test_james_split_wedge():
    got = james_split(Wedge((S2, S2)), 5)
    counts = Counter()
    for s in got.args:
        counts[s.d] += 1
    assert counts == {3: 2, 5: 4}


def test_james_split_stores_counts():
    # the top run is 4^19 copies of S^39
    got = james_split(Wedge((S2,) * 4), 40)
    assert got == Wedge.of_runs([(Sphere(2 * k + 1), 4**k) for k in range(1, 20)])


def test_james_split_validation():
    with pytest.raises(InvalidParameters):
        james_split(S2, 0)


def test_james_split_needs_only_a_certified_suspension():
    # Susp(T^2) = S^2 v S^2 v S^3, so the counts are the Pell numbers of
    # 1/(1 - 2t - t^2), shifted up by one
    with pytest.raises(CeilingExceededError):
        ref.james_split(Prod((S1, S1)), 6)
    got = Counter(s.d for s in james_split(Prod((S1, S1)), 6).args)
    assert got == {2: 2, 3: 5, 4: 12, 5: 29, 6: 70}
    with pytest.raises(CeilingExceededError):
        james_split(Loop(S1), 6)


@settings(max_examples=200)
@given(st_term_atoms, st.sampled_from([3, 6, 12]))
def test_james_split_matches_reference(x, cutoff):
    want = _reference_or_none(ref.james_split, x, cutoff)
    if want is None:
        try:
            james_split(x, cutoff)
        except CeilingExceededError:
            return
        assert susp_wedge_min_dim(normalize(x)) is not None
        return
    assert james_split(x, cutoff) == want


# --- lyndon words and the weak product splitting --------------------------

def test_lyndon_words_small():
    assert lyndon_words(2, 2) == [(1,), (2,), (1, 2)]
    assert lyndon_words(1, 3) == [(1,)]
    counts = Counter(len(w) for w in lyndon_words(2, 4))
    assert counts == {1: 2, 2: 1, 3: 2, 4: 3}


def test_lyndon_words_are_sorted_and_valid():
    words = lyndon_words(3, 5)
    assert words == sorted(words, key=lambda w: (len(w), w))
    for w in words:
        # a Lyndon word is strictly smaller than all its proper rotations
        for i in range(1, len(w)):
            assert w < w[i:] + w[:i]


def test_lyndon_words_validation():
    with pytest.raises(InvalidParameters):
        lyndon_words(0, 3)
    assert lyndon_words(2, 0) == []


def test_hilton_milnor_two_spheres():
    got = hilton_milnor(Wedge((S2, S2)), 6)
    counts = Counter(f.arg.d for f in got.args)
    # words by length: 2 of length 1, 1 of length 2, 2 of length 3,
    # 3 of length 4, 6 of length 5 -> spheres of dimension 1+length
    assert counts == {2: 2, 3: 1, 4: 2, 5: 3, 6: 6}


def test_hilton_milnor_mixed_wedge():
    got = hilton_milnor(Wedge((S2, S3)), 6)
    counts = Counter(f.arg.d for f in got.args)
    # words 1, 2, 12, 112 and then both 122 and 1112 land in dimension 6
    assert counts == {2: 1, 3: 1, 4: 1, 5: 1, 6: 2}


def test_hilton_milnor_matches_word_enumeration():
    """The content-grouped construction equals the word by word one."""
    for summands, cutoff in [((S2, S2), 8), ((S2, S3), 9), ((S2, S2, S2), 6)]:
        bases = [Sphere(s.d - 1) for s in summands]
        expected = Counter()
        for word in lyndon_words(len(bases), cutoff):
            dim = 1 + sum(bases[i - 1].d for i in word)
            if dim <= cutoff:
                inner = bases[word[0] - 1] if len(word) == 1 else Smash(
                    tuple(bases[i - 1] for i in word)
                )
                expected[format_sexpr(normalize(Loop(Susp(inner))))] += 1
        got = hilton_milnor(Wedge(summands), cutoff)
        assert Counter(format_sexpr(f) for f in got.args) == expected


def test_hilton_milnor_factors_are_canonical():
    X, Y = atom("X"), atom("Y", reduced={2: 1})
    for w, cutoff in [
        (Wedge((S2, S2, S3)), 8),
        (Wedge((Susp(X), S3, Susp(Smash((X, Y))))), 5),
        (Wedge((Smash((S1, Prod((S1, S1)))), S2)), 6),
        (Susp(Prod((S2, X))), 6),
    ]:
        got = hilton_milnor(w, cutoff)
        for f in set(got.args) if isinstance(got, Prod) else {got}:
            assert normalize(f) is f
            assert f == ref.normalize(f)


def test_hilton_milnor_atoms():
    X = atom("X")
    got = hilton_milnor(Wedge((Susp(X), Susp(X))), 3)
    counts = Counter(format_sexpr(f) for f in got.args)
    assert counts[format_sexpr(Loop(Susp(X)))] == 2
    assert counts[format_sexpr(normalize(Loop(Susp(Smash((X, X))))))] == 1


def test_hilton_milnor_single_summand():
    assert hilton_milnor(S2, 9) == Loop(S2)


def test_hilton_milnor_series_identity_small():
    got = poincare_series(hilton_milnor(Wedge((S3, S3)), 17), 16)
    want = invert(TruncSeries.of([1, 0, -2], 16))
    assert got == want


def test_hilton_milnor_rejects_non_suspension():
    with pytest.raises(SeriesDomainError):
        hilton_milnor(Wedge((S2, atom("X"))), 5)


def test_hilton_milnor_large_alphabet_is_fast():
    import time

    t0 = time.monotonic()
    got = hilton_milnor(Wedge((S2, S2, S2)), 17)
    s = poincare_series(got, 16)
    assert time.monotonic() - t0 < 5.0
    assert s == invert(TruncSeries.of([1, -3], 16))
