"""Acceptance gate: eight end-to-end checks, each printing one PASS/FAIL line.

Every comparison is exact integer equality; the runtime bounds are part of
the contract. Run with pytest -s to see the lines as they print.
"""

import random
import time

from polyloop.complexes import (
    GluingSpec,
    book_graph,
    cycle_graph,
    disjoint_points,
    path_graph,
    planar_book,
    simplex,
)
from polyloop.decomp import (
    dj_book_decompose,
    path_decompose,
    path_fibre_reduce,
    poly_fold_decompose,
)
from polyloop.homology import hochster_zk_betti, zk_sphere_multiset
from polyloop.series import TruncSeries, koszul_loop_series
from polyloop.spacealg import (
    POINT,
    Cone,
    HalfSmash,
    Join,
    Loop,
    Prod,
    Smash,
    Sphere,
    Susp,
    Wedge,
    hilton_milnor,
    james_split,
    normalize,
    poincare_series,
    sphere_multiset_of,
)

from series_reference import invert, mul, strip_circles

_CORPUS = [
    path_graph(2),
    path_graph(3),
    path_graph(4),
    cycle_graph(3),
    cycle_graph(4),
    cycle_graph(5),
    disjoint_points(3),
    simplex(2),
    planar_book(2, 2),
    planar_book(3, 2),
    book_graph(1, 3, 2),
]


def _report(number: int, name: str, ok: bool, seconds: float, budget: float) -> None:
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({seconds:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) comparison failed"
    assert seconds < budget, f"criterion {number} ({name}) exceeded {budget}s"


def test_acceptance_1_porter_hochster():
    t0 = time.monotonic()
    ok = True
    expected = {2: {3: 1}, 3: {3: 3, 4: 2}}
    for l in range(2, 7):
        engine = sphere_multiset_of(path_fibre_reduce(l, circles=True), l + 2)
        oracle = zk_sphere_multiset(path_graph(l))
        ok = ok and engine.counts == oracle.counts
        if l in expected:
            ok = ok and engine.counts == expected[l]
    _report(1, "porter-hochster agreement", ok, time.monotonic() - t0, 30.0)


def test_acceptance_2_koszul_paths():
    t0 = time.monotonic()
    ok = True
    for l in range(2, 7):
        engine = path_decompose(l, n=16, max_dim=l + 2).series
        oracle = koszul_loop_series(path_graph(l), 16)
        ok = ok and engine == oracle
    closed = mul(TruncSeries.of([1, 2, 1], 16), invert(TruncSeries.of([1, -1], 16)))
    ok = ok and koszul_loop_series(path_graph(2), 16) == closed
    _report(2, "koszul agreement on paths", ok, time.monotonic() - t0, 5.0)


def test_acceptance_3_koszul_books():
    t0 = time.monotonic()
    ok = True
    for l, p in [(2, 2), (2, 3), (3, 2)]:
        engine = dj_book_decompose(l, p, n=16, max_dim=16).series
        oracle = koszul_loop_series(planar_book(l, p), 16)
        ok = ok and engine == oracle
    den = mul(TruncSeries.of([1, -1], 16), TruncSeries.of([1, -2], 16))
    closed = mul(TruncSeries.of([1, 2, 1], 16), invert(den))
    ok = ok and koszul_loop_series(planar_book(2, 2), 16) == closed
    _report(3, "koszul agreement on books", ok, time.monotonic() - t0, 30.0)


def test_acceptance_4_hochster_four_cycle():
    t0 = time.monotonic()
    ok = hochster_zk_betti(cycle_graph(4)).ranks == {0: 1, 3: 2, 6: 1}
    _report(4, "hochster sanity on the 4-cycle", ok, time.monotonic() - t0, 1.0)


def test_acceptance_5_hilton_milnor():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 4):
        for d in range(1, 4):
            wedge = Wedge(tuple(Sphere(d + 1) for _ in range(n))) if n > 1 else Sphere(d + 1)
            got = poincare_series(hilton_milnor(wedge, 17), 16)
            want = invert(TruncSeries.of([1] + [0] * (d - 1) + [-n], 16))
            ok = ok and got == want
    _report(5, "hilton-milnor series identity", ok, time.monotonic() - t0, 5.0)


def test_acceptance_6_james():
    t0 = time.monotonic()
    ok = True
    for d in range(1, 5):
        # Susp(Loop(S^{d+1})) expands to the wedge of S^{kd+1} over k >= 1
        got = poincare_series(james_split(Sphere(d), 17), 16)
        coeffs = [0] * 17
        coeffs[0] = 1
        for k in range(1, 17):
            if k * d + 1 <= 16:
                coeffs[k * d + 1] = 1
        ok = ok and got == TruncSeries(16, tuple(coeffs))
    _report(6, "james splitting identity", ok, time.monotonic() - t0, 1.0)


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([POINT, Sphere(1), Sphere(2), Sphere(3), Sphere(4)])
    op = rng.randrange(8)
    a = _random_term(rng, depth - 1)
    b = _random_term(rng, depth - 1)
    if op == 0:
        return Wedge((a, b))
    if op == 1:
        return Prod((a, b))
    if op == 2:
        return Smash((a, b))
    if op == 3:
        return Susp(a)
    if op == 4:
        return Join(a, b)
    if op == 5:
        return HalfSmash(Susp(a), b)
    if op == 6:
        return Loop(Susp(a))
    return Cone(a)


def test_acceptance_7_rewrite_soundness():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(20260816)
    for _ in range(500):
        e = _random_term(rng, 4)
        n1 = normalize(e)
        ok = ok and normalize(n1) == n1
        ok = ok and poincare_series(e, 10) == poincare_series(n1, 10)
    for copies in (2, 3, 4):
        spec = GluingSpec(path_graph(2), (0,), (2,), (2, 1, 0), copies=copies)
        r = poly_fold_decompose(spec, Loop(Sphere(2)))
        fw = r.factors[1][1].arg
        size = len(fw.args) if isinstance(fw, Wedge) else 1
        ok = ok and size == copies - 1
    for K in _CORPUS:
        base = hochster_zk_betti(K).ranks
        perm_rng = random.Random(hash(K.to_json_obj()["m"]) ^ 7)
        for _ in range(20):
            perm = list(range(K.ground_size))
            perm_rng.shuffle(perm)
            ok = ok and hochster_zk_betti(K.relabel(perm)).ranks == base
    for K in _CORPUS:
        if K.is_flag():
            total = koszul_loop_series(K, 12)
            stripped = strip_circles(total, K.ground_size)
            ok = ok and stripped is not None
    _report(7, "rewrite soundness suite", ok, time.monotonic() - t0, 120.0)


def test_acceptance_8_flag_detection():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3, 4):
        ok = ok and not book_graph(1, 3, p).is_flag()
    for l in (2, 3):
        for p in (2, 3):
            ok = ok and planar_book(l, p).is_flag()
    _report(8, "flag detection", ok, time.monotonic() - t0, 1.0)
