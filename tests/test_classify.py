"""The three deciders, their agreement, certificates and symmetries."""

import itertools
import random
from fractions import Fraction
from math import gcd

import leaf_reference
import pytest

from mucube import classify
from mucube.classify import (
    classify_all,
    classify_group,
    classify_oracle,
    classify_x,
    classify_y,
    three_cylinder_check,
    verify_certificate,
)
from mucube.flow import SurfacePoint, cylinder_count, trace_surface
from mucube.grouptheory import fourey_direction
from mucube.homology import gamma0_intersection
from mucube.mucube3d import drift_vector


@pytest.mark.parametrize(
    "d, verdict",
    [
        ((1, 0), "periodic"),
        ((0, 1), "periodic"),
        ((4, 1), "periodic"),
        ((1, 4), "periodic"),
        ((18, 13), "periodic"),
        ((3, 1), "drift"),
        ((5, 2), "drift"),
        ((1, 2), "drift"),
        ((1, 1), "drift"),
    ],
)
def test_examples_all_methods(d, verdict):
    for fn in (classify_oracle, classify_y, classify_x):
        assert fn(d).verdict == verdict, (d, fn.__name__)


def test_lem_one_n_range():
    for n in range(-40, 41):
        expected = "periodic" if n % 4 == 0 else "drift"
        assert classify_all((1, n)).verdict == expected, n


def test_odd_odd_always_drift_quick():
    for p in range(1, 16, 2):
        for q in range(1, 16, 2):
            if gcd(p, q) == 1:
                assert classify_oracle((p, q)).verdict == "drift"


def test_five_two_case(X):
    from mucube.flow import cylinder_decomposition

    deco = cylinder_decomposition(X, (5, 2))
    assert len(deco.cylinders) == 3
    assert all(c.area == 4 for c in deco.cylinders)
    assert classify_all((5, 2)).verdict == "drift"


def test_symmetry_invariance_sampled():
    rng = random.Random(13)
    seen = 0
    while seen < 25:
        p = rng.randrange(-60, 61)
        q = rng.randrange(-60, 61)
        if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
            continue
        seen += 1
        base = classify_oracle((p, q)).verdict
        for image in ((q, p), (-p, q), (p, -q), (-q, -p)):
            assert classify_oracle(image).verdict == base, (p, q, image)



def test_oracle_separates_the_veech_subgroup():
    # Gamma = {h in H : rho(h) = +-[[1, k], [0, 1]]} maps periodic directions
    # to periodic ones: h w is a witness with column h d when w is one with
    # column d.  B is not in Gamma: its words with first column B (1, 0) are
    # +-B A^k, none with unipotent rho, so B sends the periodic (1, 0) to a
    # drift direction.  On the 368 primitive |p|, |q| <= 12 the oracle sees
    # this: T, A and the witness words of (18, 13) and (4, 1), all in Gamma,
    # change no verdict, and B changes 40.
    from mucube.grouptheory import A_MAT, B_MAT, THETA, column_witness, eval_word, is_in_gamma

    def act(m, d):
        a, b, c, e = m
        return (a * d[0] + b * d[1], c * d[0] + e * d[1])

    dirs = [(p, q) for p in range(-12, 13) for q in range(-12, 13) if gcd(p, q) == 1]
    assert len(dirs) == 368
    verdict = {d: classify_oracle(d).verdict for d in dirs}

    def changed(m):
        return sum(classify_oracle(act(m, d)).verdict != verdict[d] for d in dirs)

    witnesses = [column_witness(18, 13), column_witness(4, 1)]
    assert all(is_in_gamma(w) for w in witnesses)
    for m in (THETA, A_MAT, *map(eval_word, witnesses)):
        assert changed(m) == 0, m
    assert changed(B_MAT) == 40
    assert classify_oracle(act(B_MAT, (1, 0))).verdict == "drift"

def test_certificates_replay():
    for d in ((1, 0), (4, 1), (8, 1), (1, 2), (5, 2), (3, 1)):
        c = classify_oracle(d)
        assert verify_certificate(c)


@pytest.mark.parametrize("d", [(4, 1), (5, 2)])
def test_certificates_without_a_replay_are_refused(d):
    # Only the oracle's certificates and X's drift vector can be replayed;
    # the others hold nothing to replay and name their method.
    replayable = {"oracle", "all"} | ({"x"} if d == (5, 2) else set())
    for decide in (classify_oracle, classify_x, classify_y, classify_group, classify_all):
        c = decide(d)
        if c.method in replayable:
            assert verify_certificate(c) is True
        else:
            with pytest.raises(ValueError, match=f"the {c.method} certificate"):
                verify_certificate(c)


def test_deciders_build_no_trace_view(monkeypatch):
    # The oracle and X read a trace's summary only, and Y a decomposition's
    # summary and its single core's walk, so their lists stay unbuilt.  Y
    # counts cylinders before it walks: the one-cylinder (4, 1) builds a
    # decomposition, and the two-cylinder (3, 1) builds none.
    traces, decompositions = [], []
    for name, out in (
        ("trace3d", traces),
        ("trace_surface", traces),
        ("cylinder_decomposition", decompositions),
    ):
        def traced(*args, _tracer=getattr(classify, name), _out=out, **kwargs):
            _out.append(_tracer(*args, **kwargs))
            return _out[-1]
        monkeypatch.setattr(classify, name, traced)
    for d in ((4, 1), (5, 2)):
        verify_certificate(classify_oracle(d))
        classify_x(d)
    assert classify_y((4, 1)).certificate["cylinders"] == 1
    assert classify_y((3, 1)).certificate == {"cylinders": 2, "core_intersection": None}
    assert len(traces) == 6
    for t in traces:
        assert not {"vertices", "face_path", "scaled_segments"} & set(vars(t)), t
    assert [len(deco.cylinders) for deco in decompositions] == [1]
    views = {"squares", "scaled_intervals", "core_segments", "intervals", "core_chain"}
    for deco in decompositions:
        for c in deco.cylinders:
            assert not views & set(vars(c)), c


def test_classify_y_matches_the_walk_of_every_cylinder():
    # Counting cylinders first changes no certificate: on the signed grid
    # up to 60, and on the four-multiple fractions of depth <= 2, all periodic.
    grid = [(p, q) for p in range(-60, 61) for q in range(-60, 61) if gcd(abs(p), abs(q)) == 1]
    nonzero = [v for v in range(-3, 4) if v]
    fourey = [
        fourey_direction([a0, *tail])
        for n in range(3)
        for a0 in range(-3, 4)
        for tail in itertools.product(nonzero, repeat=n)
    ]
    assert len(grid) == 8816 and len(fourey) == 301
    for d in grid + fourey:
        assert classify_y(d) == leaf_reference.ref_classify_y(d), d
    assert {classify_y(d).verdict for d in fourey} == {"periodic"}


def test_classify_y_refuses_a_count_the_walk_does_not_find(monkeypatch):
    # A one-cylinder count is cross-checked by the decomposition's walk.
    monkeypatch.setattr(classify, "cylinder_count", lambda surface, d: 1)
    assert classify_y((4, 1)).verdict == "periodic"
    with pytest.raises(classify.ClassificationError, match=r"\(3, 1\) has 2 cylinders"):
        classify_y((3, 1))


def test_classify_y_counts_a_hundred_digit_direction_without_a_walk(monkeypatch):
    rng = random.Random(100)
    drift = []
    while len(drift) < 5:
        p, q = rng.randrange(10**99, 10**100), rng.randrange(-10**100, 10**100)
        if gcd(p, abs(q)) == 1 and cylinder_count(classify.build_y(), (p, q)) > 1:
            drift.append((p, q))

    def no_walk(*args):
        raise AssertionError("walked a decomposition")

    monkeypatch.setattr(classify, "cylinder_decomposition", no_walk)
    for d in drift:
        c = classify_y(d)
        assert c.verdict == "drift" and c.certificate["core_intersection"] is None, d
        assert c.certificate["cylinders"] > 1


def test_periodic_certificate_contents():
    c = classify_oracle((4, 1))
    assert c.certificate["core_multiplier"] == 4
    assert len(c.certificate["centers"]) == 4
    g = c.certificate["order4_motion"]
    assert g.order() == 4


def test_cross_method_drift_vectors():
    rng = random.Random(17)
    seen = 0
    while seen < 20:
        p = rng.randrange(1, 40)
        q = rng.randrange(1, 40)
        if gcd(p, q) != 1:
            continue
        cx = classify_x((p, q))
        if cx.verdict != "drift":
            continue
        seen += 1
        assert tuple(cx.certificate["displacement"]) == drift_vector((p, q))


def test_i_abc_on_drift_sample(X, Y):
    center = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(19)
    seen = 0
    while seen < 15:
        p = rng.randrange(1, 30)
        q = rng.randrange(1, 30)
        if gcd(p, q) != 1 or (p % 2 and q % 2):
            continue
        seen += 1
        tx = trace_surface(X, center, (p, q))
        ty = trace_surface(Y, center, (p, q))
        assert gamma0_intersection(Y, ty) == sum(tx.displacement)


def test_three_cylinder_check():
    assert three_cylinder_check((1, 0))
    assert three_cylinder_check((0, 1))
    assert three_cylinder_check((4, 1))
    assert three_cylinder_check((18, 13))


def test_classify_all_certificate_is_oracle():
    c = classify_all((4, 1))
    assert c.method == "all"
    assert c.certificate["core_multiplier"] == 4
    assert set(c.certificate["per_method"]) == {"oracle", "x", "y"}


def test_verdict_independent_of_start_point():
    # The paper proves verdicts do not depend on the starting point; sample a
    # few non-center starts.
    from mucube.mucube3d import Point3, SEED_CHART, SEED_FACE, trace3d

    for d, verdict in (((4, 1), "periodic"), ((1, 2), "drift")):
        for uv in ((Fraction(1, 3), Fraction(2, 7)), (Fraction(2, 7), Fraction(1, 3))):
            t = trace3d(Point3(SEED_FACE, SEED_CHART, *uv), d)
            expected = "closed" if verdict == "periodic" else "drift"
            assert t.stop_reason == expected, (d, uv)
