"""The space expression algebra: rewriting, certificates, series, splittings."""

import copy
import itertools
import json
import math
import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

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
from polyloop.series import TruncSeries, koszul_loop_series
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
    atom,
    cp_infinity,
    desuspend,
    format_sexpr,
    hilton_milnor,
    james_split,
    normalize,
    parse_sexpr,
    poincare_series,
    sexpr_pieces,
    sort_key,
    sphere_multiset_of,
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
    terms hold, so the series rules see them only through normalize; and a
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
# the two differ only in whether a declaration is there, and so do their keys.
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


# --- the copy-by-copy references, bounded ----------------------------------

# ref.normalize and ref._rw spell a suspended product out over every subset of
# its factors, and so do ref.sphere_multiset_of and ref.james_split, built on
# them: they spend about 10 us per node of the normal form spelled out copy by
# copy. A draw beyond this many nodes is compared with the run-based
# references only.
_COPIES_CAP = 20_000

# A drawn term of 29 nodes whose normal form, the 2^21 - 1 suspended smashes
# of the subsets of its 21 factors, spells out to 25,034,704 nodes in 169 runs.
_B = atom("B", reduced={2: 1, 3: 2})
_SPELLED_OUT_DRAW = Susp(Prod((Loop(Susp(S3)), *[Prod((S1, _B, _B, _B, _B))] * 4)))


def _spelled_out(e, memo) -> int:
    """The nodes of e with every run spelled out copy by copy; memo maps the
    id of each object already counted to its count."""
    n = memo.get(id(e))
    if n is None:
        if isinstance(e, (Wedge, Prod, Smash)):
            n = 1 + sum(c * _spelled_out(a, memo) for a, c in e.runs)
        elif isinstance(e, (Susp, Loop, Cone)):
            n = 1 + _spelled_out(e.arg, memo)
        elif isinstance(e, (Join, HalfSmash)):
            n = 1 + _spelled_out(e.left, memo) + _spelled_out(e.right, memo)
        else:
            n = 1
        memo[id(e)] = n
    return n


def _beyond_copies(e) -> bool:
    """Whether normalize(e) spells out to more than _COPIES_CAP nodes. Such a
    term is marked, and checked here against the run-based references: its
    certificates, and its series through two orders."""
    if _spelled_out(normalize(e), {}) <= _COPIES_CAP:
        return False
    event("beyond the copy-by-copy references: run-based references only")
    _check_cert(e)
    for n in (3, 12):
        _check_red(e, n, canonical=False)
    return True


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
@example(_SPELLED_OUT_DRAW)
def test_normalize_matches_reference(e):
    """The one-walk normalize agrees with the copy-by-copy reference rewrite."""
    got = normalize(e)
    assert normalize(got) is got
    if _beyond_copies(e):
        return
    want = ref.normalize(e)
    assert got == want
    assert format_sexpr(got) == ref.format_sexpr(want)


@settings(max_examples=300)
@given(st.one_of(st_term, st_term_atoms))
@example(Susp(Wedge((Prod((S1, S2)), Loop(S3)))))
@example(_SPELLED_OUT_DRAW)
def test_normalize_is_a_fixpoint_of_the_reference_rewrite(e):
    # the one walk leaves nothing for a further copy-by-copy pass to do
    n = normalize(e)
    if not _beyond_copies(n):
        assert ref._rw(n) == n


@settings(max_examples=300)
@given(st_term_atoms)
@example(Smash((atom("B"), Susp(atom("A")))))
@example(Smash((atom("A"), Join(atom("B"), atom("A")))))
@example(_SPELLED_OUT_DRAW)
def test_desuspend_keeps_canonical_terms_canonical(e):
    c = normalize(e)
    d = desuspend(c)
    assume(d is not None)
    assert normalize(d) is d
    if not _beyond_copies(d):
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
    # atom("A", reduced={}) and atom("A") differ only in an empty declaration
    a0, a1, s = atom("A", reduced={}), atom("A"), S2
    for args in [(a0, a1, a0), (a1, s, a0, a1, a1), (a0, a0, a1), (s, s, a1, a0)]:
        for cls in (Wedge, Prod):
            assert normalize(cls(args)) == ref.normalize(cls(args))
            assert normalize(Susp(cls(args))) == ref.normalize(Susp(cls(args)))


A, A0 = atom("A"), atom("A", reduced={})  # no declaration, and an empty one


@settings(max_examples=300)
@given(st.one_of(st_term, st_term_atoms), st.one_of(st_term, st_term_atoms))
@example(Wedge((A, A, A0)), Wedge((A0, A0)))
@example(Wedge((A, A0, atom("B"))), Wedge((A0, A0, A, atom("B"))))
@example(Prod((A0, A, A, S2)), Prod((A, A0, S2)))
@example(Wedge((S2, S2, S3)), Wedge((S2, S2)))
@example(Wedge((S2, S2, S3)), Wedge((S2, S2, S2)))
@example(_SPELLED_OUT_DRAW, S2)
def test_sort_key_orders_as_the_spelled_out_key(a, b):
    # the per-run key compares canonical terms as the key of their spelled-out children
    a, b = normalize(a), normalize(b)
    ka, kb = sort_key(a), sort_key(b)
    assert (ka == kb) == (a == b)
    assert sorted([a, b], key=sort_key) == sorted([b, a], key=sort_key)
    if _beyond_copies(a) or _beyond_copies(b):
        return  # the reference keys every copy
    ra, rb = ref.sort_key(a), ref.sort_key(b)
    assert (ka < kb, ka == kb, ka > kb) == (ra < rb, ra == rb, ra > rb)
    for pair in ([a, b], [b, a]):
        assert sorted(pair, key=sort_key) == sorted(pair, key=ref.sort_key)


def test_sort_key_has_one_entry_per_run_of_equal_keys():
    assert len(sort_key(porter_wedge(20))[1]) == 19
    _, runs = sort_key(normalize(Wedge((A, A0, A, S2))))
    assert runs == ((sort_key(S2), 1, -1), (sort_key(A), 1, -2), (sort_key(A0), 0, 1))


@settings(max_examples=200)
@given(st.sampled_from([Wedge, Prod, Smash]), st.lists(st_term_atoms, min_size=2, max_size=3))
@example(Wedge, [A, A0])
@example(Prod, [A0, S2, A, A0])
@example(Smash, [Susp(A), Susp(A0), S2])
def test_normalize_does_not_depend_on_the_order_of_children(cls, children):
    # unequal canonical terms never share a sort key, so no input order shows
    want = normalize(cls(tuple(children)))
    for perm in itertools.permutations(children):
        assert normalize(cls(perm)) == want


def test_sort_key_is_injective_on_atoms():
    atoms = [A, A0, atom("A", loop_reduced={}), atom("A", reduced={}, loop_reduced={}),
             atom("A", reduced={1: 1}), atom("B")]
    assert len({sort_key(a) for a in atoms}) == len(atoms)


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


def test_run_counts_are_ints_at_least_zero():
    # a negative count would cancel the counts of equal neighbours, or drop
    # a run and the summand after it
    for cls in (Wedge, Prod, Smash):
        for bad in (-3, -1, 1.0, 2.5, "2", None):
            with pytest.raises(InvalidParameters):
                cls.of_runs([(S2, bad), (S3, 1)])
        assert cls.of_runs([(S2, 0), (S3, 1), (S3, 0)]).runs == ((S3, 1),)


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
# a factor that desuspends, a sphere or a suspension, certifies the other
# factors of a smash by B, so these normal forms, loops on wedges with such
# smashes, keep the raw terms' series
@example(Loop(Susp(Loop(HalfSmash(Susp(Loop(Prod.of_runs([(S2, 2)]))), S1)))))
@example(Loop(Susp(Loop(HalfSmash(Susp(Loop(Join(S1, S1))), Loop(Join(S1, S1)))))))
# a contractible factor decides a smash before an uncertified one refuses it
@example(Loop(Susp(Join(POINT, atom("A", {1: 1})))))
# a read wedge shares its leaves, so runs of one object that do not touch add up
@example(parse_sexpr("(wedge (sphere 2) (sphere 3) (sphere 2))"))
# raw loops on the point and on loops of it: Loop(Loop(POINT)) is the point,
# and the second is Loop(S^3)
@example(Loop(Loop(POINT)))
@example(Loop(Wedge((S3, Loop(POINT)))))
def test_raw_series_agrees_with_the_normal_form(e):
    # both refuse, with the same class of error, or both give the same series
    def series(t):
        try:
            return poincare_series(t, 8)
        except SeriesDomainError as exc:
            return type(exc)

    assert series(e) == series(normalize(e))


@given(st_term)
def test_sexpr_roundtrip(e):
    assert parse_sexpr(format_sexpr(e)) == e
    assert from_json_obj(to_json_obj(e)) == e


# names JSON escapes: a backslash, control and non-ASCII characters, and a
# character outside the basic plane, which ASCII JSON writes as a surrogate pair
st_named = _terms(st.one_of(
    st_sphere,
    st.sampled_from(["back\\slash", "tab\tnew\nline", "caf\u00e9", "clef \U0001d11e", "X"]).map(atom),
))


@settings(max_examples=150)
@given(st.one_of(st_term_atoms, st_named), st.sampled_from([1, 12, 64, 1 << 16]))
# empty n-ary nodes, which the reader keeps, spelled "(wedge )"
@example(Wedge(()), 1 << 16)
@example(Prod(()), 1 << 16)
@example(Smash(()), 1)
@example(Wedge.of_runs([(Prod(()), 3), (S2, 1)]), 12)
@example(Loop(Wedge.of_runs([(Smash(()), 2)])), 1)
def test_sexpr_pieces_spell_the_reference_text(e, size):
    text = ref.format_sexpr(e)
    # the batch size is lowered so that small terms reach the copy-by-copy path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spacealg, "_PIECE_CHARS", size)
        pieces = list(sexpr_pieces(e))
        # escaping piece by piece gives the JSON string of the whole text
        escape = json.encoder.encode_basestring_ascii
        escaped = list(sexpr_pieces(e, lambda p: escape(p)[1:-1]))
    assert "".join(pieces) == text
    assert "".join(escaped) == json.dumps(text)[1:-1]
    # a piece is a leaf, a head such as "(halfsmash ", or at most size + 1
    # characters: no piece grows with the counts of the runs
    leaves = [a for a in _nodes(e) if isinstance(a, (Point, Sphere, Atom))]
    longest = max((len(escape(ref.format_sexpr(a))) - 2 for a in leaves), default=0)
    assert max(map(len, escaped)) <= max(size + 1, longest, len("(halfsmash "))


def test_sexpr_atom_quoting():
    # names survive the round-trip; homology declarations are engine-side
    # annotations and intentionally do not
    a = atom("page-fibre", reduced={2: 3}, loop_reduced={1: 1})
    back = parse_sexpr(format_sexpr(a))
    assert back == atom("page-fibre")
    assert format_sexpr(a) == '(atom "page-fibre")'


# every text the tests know the reader to refuse
_REFUSED = [
    "(wedge (sphere 3)", "(frobnicate 3)", "(sphere 0)",
    # an unmatched quote is refused, not skipped
    '(sphere "3)', '(wedge (sphere 2) " (sphere 3))', '(atom "X)', '"', '("',
    "(", "(wedge (sphere 2) (",
    # literals among space arguments, and arities
    "(wedge (sphere 2) 3)", "(wedge 3 (sphere 2)", '(wedge "x" (foo))', '(wedge (sphere 2) "x")',
    "(wedge 1_0 (sphere 2))", "(wedge (sphere 2) x)", "(wedge (sphere 2) (sphere 2) 5 (sphere 2))",
    "(prod (loop (sphere 2)) (loop (sphere 2)) 7)", "(loop 3)", "(point 3)", "(point (sphere 2))",
    "(atom 3)", '(atom "a" "b")', '(atom "")', "(sphere 3 (sphere 2))", "(join (sphere 2))",
    "(susp)", "(halfsmash (sphere 2) (sphere 2) (sphere 2))", "(susp (sphere 2) (sphere 2))",
]


def test_parse_rejects_garbage():
    for text in _REFUSED:
        with pytest.raises(InvalidParameters):
            parse_sexpr(text)
        # with the reference reader's error and message
        assert _read(parse_sexpr, text) == _read(ref.parse_sexpr, text)


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
        # a leaf spelled otherwise is the same object as the one spelled plainly
        "(wedge (sphere 03) (sphere 3) (sphere 3) (sphere 03) (sphere 4))",
        "(wedge (sphere 3) (sphere 03))", "(prod (loop (sphere 03)) (loop (sphere 3)))",
        # equal neighbours that are not leaves merge by ==
        "(wedge (loop (sphere 2)) (loop (sphere 2)) (sphere 3) (loop (sphere 2)))",
        '(prod (atom "A") (atom "A") (atom "B") (atom "A"))',
        "(smash (wedge (sphere 2) (sphere 3)) (wedge (sphere 2) (sphere 3)) (sphere 2))",
        "(wedge (wedge) (wedge) point point (point) (sphere 2) (sphere 2))",
        "(wedge (susp (loop (sphere 2))) (susp (loop (sphere 2))) (susp (loop (sphere 3))))",
        # a token after a whole term, or a literal where the term should be
        "point point", "point )", "3 (sphere 2)", '"x"', "(sphere 2) (",
        "(wedge (sphere 2) (sphere 2)) x",
    ],
)
def test_parse_of_odd_texts_matches_the_reference_reader(text):
    assert _read(parse_sexpr, text) == _read(ref.parse_sexpr, text)


def test_parse_reads_a_term_deeper_than_the_recursion_limit():
    n = 3000
    e = parse_sexpr("(susp " * n + "(sphere 2)" + ")" * n)
    # walked with a loop: == and normalize still recurse
    depth = 0
    while isinstance(e, Susp):
        e, depth = e.arg, depth + 1
    assert depth == n
    assert e == Sphere(2)


def test_normalize_of_a_shuffled_read_back_wedge_allocates_per_object():
    # a read wedge has a run per summand, one shared object per sphere
    # dimension: normalize groups the runs by object before anything else
    w = porter_wedge(15)
    parts = [format_sexpr(a) for a, c in w.runs for _ in range(c)]
    random.Random(15).shuffle(parts)
    e = parse_sexpr(f"(wedge {' '.join(parts)})")
    assert len(e.runs) > 100_000
    tracemalloc.start()
    try:
        got = normalize(e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == w
    assert peak < 1 << 20, f"{peak} bytes"


@pytest.mark.parametrize("l", range(3, 11))
def test_parse_of_shuffled_porter_wedges_matches_the_reference_reader(l):
    # the read-back texts: Porter's wedge with its summands in random order
    parts = [format_sexpr(a) for a in porter_wedge(l).args]
    random.Random(l).shuffle(parts)
    text = f"(wedge {' '.join(parts)})"
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


def _a(e):
    """The least sphere dimension of e when _cert certifies e a wedge of
    spheres, else None."""
    b, wedge, _ = spacealg._cert(e)
    return b - 1 if wedge else None


def _b(e):
    """The least sphere dimension of Susp(e) when _cert certifies it."""
    return spacealg._cert(e)[0]


def test_wedge_of_spheres_certificate():
    assert _a(POINT) == INF
    assert _a(S2) == 2
    assert _a(Wedge((S2, S3))) == 2
    assert _a(Smash((S2, S3))) == 5
    assert _a(Susp(Wedge((S1, S1)))) == 2
    assert _a(atom("X")) is None
    assert _a(Prod((S2, S2))) is None


def test_susp_wedge_certificate():
    # B(e) certifies Susp(e) as a sphere wedge and reports dimensions there
    assert _b(S1) == 2
    assert _b(Loop(S2)) == 2
    assert _b(Loop(S1)) is None
    assert _b(Prod((Loop(S2), Loop(S3)))) == 2
    assert _b(HalfSmash(S2, Loop(S2))) == 3


def _check_smash_by_a_wedge_factor(s, ceiling=10):
    """The sphere counts of a certified smash s read off one wedge factor W:
    W ^ Y is the wedge over the spheres S^d of W of Susp^(d-1)(Susp Y), with
    Y the smash of the other factors."""
    i = next(i for i, (a, _) in enumerate(s.runs) if spacealg._cert(a)[1])
    y = normalize(Smash.of_runs([(a, c - (j == i)) for j, (a, c) in enumerate(s.runs)]))
    want = Counter()
    for d, k in sphere_multiset_of(s.runs[i][0], ceiling).counts.items():
        for dim, n in sphere_multiset_of(Susp(y), ceiling - d + 1).counts.items():
            want[dim + d - 1] += k * n
    assert sphere_multiset_of(s, ceiling).counts == {d: n for d, n in want.items() if n}


@settings(max_examples=200)
@given(st.one_of(st_term, st_term_atoms, st_term_raw))
# a smash that only its desuspendable factor certifies
@example(Smash((S2, Loop(S2))))
# smashes that A refuses: (S^1 v S^2) ^ Loop(S^3) is Susp Loop(S^3) v
# Susp^2 Loop(S^3) by James, and a drawn smash of a wedge with a torus
@example(Smash((Wedge((S1, S2)), Loop(S3))))
@example(Loop(Smash((Wedge((S1, S2)), Loop(S3)))))
@example(parse_sexpr("(smash (wedge (sphere 1) (sphere 1)) (prod (sphere 1) (sphere 1) (sphere 1)))"))
def test_cert_matches_both_reference_certificates(e):
    _check_cert(e)


def _check_cert(e):
    """One walk gives the reference's B wherever it has one, and certifies e
    wherever the reference's A does, with least dimension B - 1. It also
    certifies a smash whose factors all have B through any one wedge
    factor, which A misses unless some factor desuspends: each such smash
    in e has the sphere counts of that rule, and only through one does
    the walk differ from the reference, by certifying more (a loop on
    such a smash gains a B). Wherever B is given, the walk's top degree is
    the structural one the reference reads off the term."""
    c = normalize(e)
    b, wedge, top = spacealg._cert(c)
    want_b, a = ref.susp_wedge_min_dim(c), ref.wedge_of_spheres_min_dim(c)
    if b is not None:
        assert top == ref._top_dim(c)
    if want_b is not None:
        assert b == want_b
    if a is not None:
        assert wedge and a == b - 1
    beyond = [s for s in _nodes(c) if isinstance(s, Smash) and spacealg._cert(s)[1]
              and ref.wedge_of_spheres_min_dim(s) is None]
    for s in beyond:
        _check_smash_by_a_wedge_factor(s)
    if (b, wedge) != (want_b, a is not None):
        assert beyond


def test_a_smash_with_a_wedge_factor_is_certified():
    # neither factor of (S^1 v S^2) ^ Loop(S^3) desuspends; its reduced
    # series is t^3 / (1 - t), and its loop series (1 - t) / (1 - t - t^2)
    e = Smash((Wedge((S1, S2)), Loop(S3)))
    ms = sphere_multiset_of(e, 8)
    assert ms.counts == {d: 1 for d in range(3, 9)} and ms.truncated
    assert poincare_series(Loop(e), 8).coeffs == (1, 0, 1, 1, 2, 3, 5, 8, 13)


@settings(max_examples=200)
@given(st.one_of(st_term, st_term_atoms, st_term_raw))
@example(Smash((S2, Loop(S2))))
def test_cert_builds_no_terms(e):
    c = normalize(e)
    want = spacealg._cert(c)

    def build(*args):
        raise AssertionError("the certificate walk built a term")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spacealg, "desuspend", build)
        mp.setattr(spacealg, "_nary", build)
        assert spacealg._cert(c) == want


def test_smash_certificates_use_sphere_and_contractible_factors():
    # the certificates read normal forms; the reference reads the raw terms
    def a(e):
        want = ref.wedge_of_spheres_min_dim(e)
        assert _a(normalize(e)) == want
        return want

    def b(e):
        want = ref.susp_wedge_min_dim(e)
        assert _b(normalize(e)) == want
        return want

    # S^k ^ Y = Susp^(k-1)(Susp Y): the sphere factors certify Y through B,
    # and so does any factor that desuspends
    assert a(Smash((S2, Loop(S2)))) == 3
    assert a(Smash((S1, S2, Prod((S2, S2))))) == 5
    assert a(Smash((Loop(S3), Susp(Loop(S3))))) == 5
    assert a(Smash((Loop(S2), Loop(S3)))) is None
    assert a(Smash((S2, atom("X")))) is None
    # a contractible factor decides before an uncertified one refuses
    assert a(Smash((Susp(POINT), atom("X")))) == INF
    assert b(Smash((Cone(S1), atom("X")))) == INF
    zero = poincare_series(POINT, 8)
    assert poincare_series(Loop(Susp(Join(POINT, atom("A", {1: 1})))), 8) == zero
    e = Loop(Susp(Loop(HalfSmash(Susp(Loop(Prod.of_runs([(S2, 2)]))), S1))))
    want = (1, 2, 13, 79, 483, 2951, 18031, 110171, 673155)
    assert poincare_series(e, 8).coeffs == poincare_series(normalize(e), 8).coeffs == want


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


def _schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


# integer lists that may be empty or end in zeros
st_raw_coeffs = st.lists(st.integers(-5, 5), max_size=7)


@given(st_raw_coeffs, st_raw_coeffs, st.integers(0, 12))
def test_mul_keeps_only_the_inputs_length(a, b, n):
    want = _schoolbook(a, b)[: min(n, len(a) + len(b) - 2) + 1]
    assert spacealg._mul(a, b, n) == want


@given(st_raw_coeffs, st.integers(0, 5), st.integers(0, 12))
def test_pow_is_the_repeated_product(base, k, n):
    want = [1]
    for _ in range(k):
        want = _schoolbook(want, base)
    assert spacealg._times([(base, k)], n) == _trimmed(want[: n + 1])


@given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 12))
def test_invert_of_a_unit_constant_term_is_the_inverse(tail, n):
    a = [1] + tail
    inv = spacealg._invert(a, n)
    assert len(inv) == n + 1
    assert _schoolbook(a, inv)[: n + 1] == [1] + [0] * n


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


def test_red_stops_at_the_last_nonzero_coefficient_and_says_whole():
    # whole: zero above degree n, as the certificate's top degree is at most n
    def red(e, n):
        c = normalize(e)
        return spacealg._red(c, n), spacealg._cert(c)[2] <= n

    assert red(POINT, 4) == red(Cone(S3), 4) == ([], True)
    assert red(Wedge((S2, Sphere(5), S3)), 9) == ([0, 0, 1, 1, 0, 1], True)
    assert red(Wedge((S2, Sphere(5), S3)), 4) == ([0, 0, 1, 1], False)
    assert red(Smash((S2, Wedge((S1, S3)))), 5) == ([0, 0, 0, 1, 0, 1], True)
    assert red(Smash((S2, Wedge((S1, S3)))), 4) == ([0, 0, 0, 1], False)
    assert red(Smash((S2, Cone(S3))), 1) == ([], True)
    assert red(Prod((S2, S3, POINT)), 5) == ([0, 0, 1, 1, 0, 1], True)
    assert red(Prod((S2, S3, POINT)), 4) == ([0, 0, 1, 1], False)
    assert red(Join(S1, S2), 4) == ([0, 0, 0, 0, 1], True)
    assert red(Join(S1, S2), 3) == ([], False) and red(Join(S1, POINT), 0) == ([], True)
    assert red(HalfSmash(S2, S3), 5) == ([0, 0, 1, 0, 0, 1], True)
    assert red(HalfSmash(S2, S3), 4) == ([0, 0, 1], False)
    assert red(HalfSmash(POINT, S3), 9) == ([], True)
    assert red(Susp(Loop(S2)), 3) == ([0, 0, 1, 1], False)
    assert red(Susp(Loop(Cone(S2))), 3) == ([], True)
    assert red(Smash((S2, Loop(S3))), 5) == ([0, 0, 0, 0, 1], False)
    # a loop on a wedge of high spheres reads zero at a low order, and is not whole
    assert red(Loop(Sphere(4)), 0) == ([], False)
    assert red(Smash((Cone(S2), Loop(Sphere(4)))), 0) == ([], True)


def _series_or_refusal(red, e, n):
    try:
        return red(e, n)
    except SeriesDomainError as exc:
        return str(exc)


@settings(max_examples=1000)
@given(st.one_of(st_term, st_term_atoms, st_term_raw),
       st.sampled_from([0, 1, 2, 3, 5, 8, 12, 20]), st.booleans())
@example(Loop(Sphere(4)), 0, True)
@example(Susp(Loop(Wedge((Sphere(3), Sphere(4))))), 0, True)
def test_red_agrees_with_the_padded_reference(e, n, canonical):
    _check_red(e, n, canonical)


def _check_red(e, n, canonical):
    """The package reads the normal form and the reference the term as drawn
    (or its normal form, with canonical): the trimmed coefficients pad to
    the reference's wherever it has them, the package refuses only where
    the reference refuses too, and wherever the certificate gives B its top
    degree is the structural one."""
    if canonical:
        e = normalize(e)
    c = normalize(e)
    want = _series_or_refusal(ref._red, e, n)
    got = _series_or_refusal(spacealg._red, c, n)
    if isinstance(got, str):
        assert isinstance(want, str)
        return
    assert not got or got[-1]
    if not isinstance(want, str):
        assert got + [0] * (n + 1 - len(got)) == want
    b, _, top = spacealg._cert(c)
    if b is not None:
        assert top == ref._top_dim(c)


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
    # a polynomial series stops at its top sphere, whatever the order asked
    real = spacealg._red

    def bounded(e, n):
        out = real(e, n)
        assert len(out) <= 8, f"{len(out)} coefficients above the top sphere"
        return out

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
    want = None if _beyond_copies(e) else _reference_or_none(ref.sphere_multiset_of, e, ceiling)
    if want is None:
        # the series answers only what the certificate covers
        try:
            sphere_multiset_of(e, ceiling)
        except CeilingExceededError:
            return
        assert spacealg._cert(normalize(e))[1]
        return
    got = sphere_multiset_of(e, ceiling)
    assert got.counts == want.counts
    assert got.truncated == want.truncated


@settings(max_examples=200)
@given(st_term, st.sampled_from([3, 6, 12]))
@example(_SPELLED_OUT_DRAW, 12)
def test_sphere_multiset_matches_reference(e, ceiling):
    _check_sphere_multiset_against_reference(e, ceiling)


@settings(max_examples=200)
@given(st_term_atoms, st.sampled_from([3, 6, 12]))
@example(_SPELLED_OUT_DRAW, 12)
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
@example(_SPELLED_OUT_DRAW, 12)
def test_james_split_matches_reference(x, cutoff):
    want = None if _beyond_copies(x) else _reference_or_none(ref.james_split, x, cutoff)
    if want is None:
        try:
            james_split(x, cutoff)
        except CeilingExceededError:
            return
        assert spacealg._cert(normalize(x))[0] is not None
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
    assert hilton_milnor(Wedge((POINT, Cone(S2))), 9) == POINT


def test_hilton_milnor_series_identity_small():
    got = poincare_series(hilton_milnor(Wedge((S3, S3)), 17), 16)
    want = invert(TruncSeries.of([1, 0, -2], 16))
    assert got == want


def test_hilton_milnor_rejects_non_suspension():
    with pytest.raises(SeriesDomainError):
        hilton_milnor(Wedge((S2, atom("X"))), 5)
    with pytest.raises(InvalidParameters):
        hilton_milnor(S2, 0)


def test_hilton_milnor_large_alphabet_is_fast():
    import time

    t0 = time.monotonic()
    got = hilton_milnor(Wedge((S2, S2, S2)), 17)
    s = poincare_series(got, 16)
    assert time.monotonic() - t0 < 5.0
    assert s == invert(TruncSeries.of([1, -3], 16))


def test_lyndon_content_count_with_one_letter_per_group_is_witts():
    for n in range(1, 5):
        for content in itertools.product(range(5), repeat=n):
            if any(content):
                want = ref._lyndon_content_count(content)
                assert spacealg._lyndon_content_count(content, (1,) * n) == want


def test_lyndon_content_count_counts_words_per_group():
    # the letters 1..5 fall into groups of 2, 1 and 2; count listed words per group content
    sizes = (2, 1, 2)
    group = [g for g, c in enumerate(sizes) for _ in range(c)]
    counts = Counter()
    for word in lyndon_words(sum(sizes), 6):
        content = [0] * len(sizes)
        for letter in word:
            content[group[letter - 1]] += 1
        counts[tuple(content)] += 1
    for content in itertools.product(range(7), repeat=len(sizes)):
        if 0 < sum(content) <= 6:
            assert spacealg._lyndon_content_count(content, sizes) == counts[content]


st_hm_summand = st.sampled_from(
    [S2, S3, Sphere(4), Susp(atom("X")), Susp(A), Susp(A0), Susp(Smash((atom("X"), S2)))]
)


@settings(max_examples=100)
@given(st.lists(st.tuples(st_hm_summand, st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(1, 7))
@example([(S2, 3)], 8)
@example([(S2, 2), (S3, 1)], 9)
@example([(S3, 1), (S2, 2), (Susp(atom("X")), 1)], 6)
@example([(Susp(A), 2), (Susp(A0), 2)], 5)
def test_hilton_milnor_by_run_matches_the_reference_by_summand(runs, cutoff):
    w = Wedge.of_runs(runs)
    got = hilton_milnor(w, cutoff)
    assert normalize(got) is got
    assert got == normalize(ref.hilton_milnor(w, cutoff))


@pytest.mark.parametrize("l, c", [(3, 10), (5, 10), (8, 12), (20, 14), (40, 14)])
def test_hilton_milnor_of_the_porter_wedge_gives_the_path_loop_series(l, c):
    # a third route to the path splitting: Omega DJ_K = T^(l+1) x Omega Z_K, Z_K is
    # Porter's wedge, and Hilton-Milnor is series-exact through degree c - 1
    fibre = poincare_series(hilton_milnor(porter_wedge(l), c), c - 1)
    torus = TruncSeries.of([math.comb(l + 1, j) for j in range(c)], c - 1)
    assert mul(fibre, torus) == koszul_loop_series(path_graph(l), c - 1)


def test_repeated_summands_cost_per_run():
    import time

    t0 = time.monotonic()
    hilton_milnor(porter_wedge(5), 10)
    normalize(Susp(Prod((A,) * 10 + (A0,) * 10)))
    # 6.7 s and about a minute when either was walked copy by copy
    assert time.monotonic() - t0 < 1.0
