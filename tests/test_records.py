"""The value types are frozen records: construction, equality, hashing, repr
and immutability, pinned to what the types did when they were frozen
dataclasses. The repr strings were recorded from that implementation."""

import pytest

from polyloop.complexes import GluingSpec, SimplicialComplex, cycle_graph, from_facets
from polyloop.decomp import DecompResult
from polyloop.errors import InvalidParameters
from polyloop.homology import BettiTable
from polyloop.series import TruncSeries
from polyloop.spacealg import (
    POINT,
    Atom,
    Cone,
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
)
from polyloop.spheres import SphereMultiset

S1, S2, S3 = Sphere(1), Sphere(2), Sphere(3)


def _glue_spec(**kw):
    return GluingSpec(cycle_graph(4), (0,), (2,), (2, 1, 0, 3), **kw)


# one builder per value type, so that each call makes a fresh twin
INSTANCES = [
    (lambda: Point(), "Point()"),
    (lambda: Sphere(3), "Sphere(d=3)"),
    (lambda: atom("y", {2: 1}, {1: 1}),
     "Atom(name='y', reduced=((2, 1),), loop_reduced=((1, 1),))"),
    (lambda: Wedge((S2, S2, S2)), "Wedge(runs=((Sphere(d=2), 3),))"),
    (lambda: Prod((S2, S3)), "Prod(runs=((Sphere(d=2), 1), (Sphere(d=3), 1)))"),
    (lambda: Smash((S1, S1)), "Smash(runs=((Sphere(d=1), 2),))"),
    (lambda: Susp(S2), "Susp(arg=Sphere(d=2))"),
    (lambda: Loop(S3), "Loop(arg=Sphere(d=3))"),
    (lambda: Join(S1, S2), "Join(left=Sphere(d=1), right=Sphere(d=2))"),
    (lambda: HalfSmash(S2, S1), "HalfSmash(left=Sphere(d=2), right=Sphere(d=1))"),
    (lambda: Cone(S2), "Cone(arg=Sphere(d=2))"),
    (lambda: from_facets(3, [(0, 1), (2,)]),
     "SimplicialComplex(ground_size=3, faces=frozenset({(0, 1), (1,), (2,), (0,), ()}))"),
    (lambda: _glue_spec(copies=3),
     "GluingSpec(base=SimplicialComplex(ground_size=4, faces=frozenset({(0, 1), (2,), (1, 2), "
     "(0, 3), (2, 3), (1,), (0,), (), (3,)})), sub_a=(0,), sub_b=(2,), psi=(2, 1, 0, 3), "
     "copies=3)"),
    (lambda: TruncSeries(3, (1, 0, -2, 5)), "TruncSeries(n=3, coeffs=[1, 0, -2, 5])"),
    (lambda: BettiTable({3: 2, 4: 1}, 3), "BettiTable(ranks={3: 2, 4: 1}, m=3)"),
    (lambda: SphereMultiset({2: 3, 4: 1}, 5, True),
     "SphereMultiset(counts={2: 3, 4: 1}, max_dim=5, truncated=True)"),
    (lambda: DecompResult("P_l", {"l": 1}, S2, (("x", S2),),
                          {"x": SphereMultiset({2: 1}, None, False)}, TruncSeries(1, (1, 0)),
                          ("porter",)),
     "DecompResult(family='P_l', params={'l': 1}, total=Sphere(d=2), "
     "factors=(('x', Sphere(d=2)),), "
     "spheres={'x': SphereMultiset(counts={2: 1}, max_dim=None, truncated=False)}, "
     "series=TruncSeries(n=1, coeffs=[1, 0]), provenance=('porter',))"),
]
# types with a dict field were unhashable as dataclasses and stay so
UNHASHABLE = (BettiTable, SphereMultiset, DecompResult)


@pytest.mark.parametrize("make, text", INSTANCES, ids=[t.split("(")[0] for _, t in INSTANCES])
def test_value_type_contract(make, text):
    e, twin = make(), make()
    assert repr(e) == text
    assert e == twin and not e != twin
    if isinstance(e, UNHASHABLE):
        with pytest.raises(TypeError, match="unhashable"):
            hash(e)
    else:
        assert hash(e) == hash(twin)
    name = next(iter(vars(e)), "runs")
    with pytest.raises(AttributeError):
        setattr(e, name, None)
    with pytest.raises(AttributeError):
        delattr(e, name)
    assert e == twin


def test_equality_holds_only_within_one_class():
    runs = ((S2, 2), (S3, 1))
    w, p = Wedge.of_runs(runs), Prod.of_runs(runs)
    assert w.runs == p.runs and w != p and not w == p
    assert Sphere(2) != (2,) and (2,) != Sphere(2)
    assert Susp(S2) != Loop(S2) and Join(S1, S2) != HalfSmash(S1, S2)
    assert POINT == Point() and POINT != Wedge(())
    # the hash is that of the field tuple
    assert hash(POINT) == hash(()) and hash(S3) == hash((3,))
    assert hash(Join(S1, S2)) == hash((S1, S2)) and hash(w) == hash((w.runs,))
    # an equal value in another class is no match in a set either
    assert len({Susp(S2), Loop(S2), Cone(S2), Susp(Sphere(2))}) == 3


def test_keyword_construction_and_defaults():
    assert _glue_spec(copies=3) == GluingSpec(
        base=cycle_graph(4), sub_a=(0,), sub_b=(2,), psi=(2, 1, 0, 3), copies=3
    )
    assert Atom("x") == Atom("x", None, None) == Atom(name="x", loop_reduced=None)
    assert Atom("x").reduced is None and Atom("x").loop_reduced is None
    assert Sphere(d=4) == Sphere(4)
    assert TruncSeries(coeffs=(1, 1), n=1) == TruncSeries(1, (1, 1))
    for bad in (lambda: Sphere(), lambda: Sphere(1, 2), lambda: Sphere(1, d=2),
                lambda: Sphere(e=2), lambda: TruncSeries(1)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Sphere(0), "sphere dimension must be at least 1"),
        (lambda: Atom(""), "atom names must be nonempty"),
        (lambda: Atom('a"b'), "quote-free"),
        (lambda: Atom("x", ((0, 1),)), "declared polynomials"),
        (lambda: Atom("x", None, ((3, 1), (2, 1))), "declared polynomials"),
        (lambda: SimplicialComplex(-1, frozenset({()})), "ground_size must be nonnegative"),
        (lambda: SimplicialComplex(2, frozenset({(0,)})), "the empty face must be present"),
        (lambda: SimplicialComplex(2, frozenset({(), (1, 0)})), "not a sorted duplicate-free"),
        (lambda: SimplicialComplex(2, frozenset({(), (2,)})), "labels outside"),
        (lambda: SimplicialComplex(2, frozenset({(), (0,), (0, 1)})), "closure violated"),
        (lambda: _glue_spec(copies=1), "at least two copies"),
        (lambda: GluingSpec(cycle_graph(4), (), (2,), (2, 1, 0, 3), 2), "nonempty subsets"),
        (lambda: GluingSpec(cycle_graph(4), (0,), (2,), (2, 1, 0), 2), "psi is not a permutation"),
        (lambda: GluingSpec(cycle_graph(4), (0,), (2,), (1, 0, 2, 3), 2), "not an automorphism"),
        (lambda: GluingSpec(cycle_graph(4), (0,), (1,), (2, 1, 0, 3), 2), "carry sub_a onto sub_b"),
        (lambda: TruncSeries(-1, ()), "truncation order must be nonnegative"),
        (lambda: TruncSeries(1, (1,)), "length n\\+1"),
        (lambda: TruncSeries(1, (1, 0.5)), "coefficients must be integers"),
        (lambda: SphereMultiset({0: 1}, None, False), "entries must be positive"),
        (lambda: SphereMultiset({3: 1}, 2, True), "above the declared ceiling"),
    ],
)
def test_post_init_refusals(make, message):
    with pytest.raises(InvalidParameters, match=message):
        make()

