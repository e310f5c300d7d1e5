"""Matrix words, the homology representation, witnesses, continued fractions."""

import itertools
import os
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from math import gcd
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucube import grouptheory
from mucube.classify import classify_all, classify_group, classify_oracle, classify_x
from mucube.grouptheory import (
    A_MAT,
    B_MAT,
    ContinuedFraction,
    CosetTableError,
    GENS,
    GroupWord,
    IDENTITY,
    INCONCLUSIVE,
    Mat2,
    PERIODIC_SLOPE,
    RECURRENT_ALL,
    RECURRENT_FROM_CONE_POINTS,
    THETA,
    column_has_witness,
    column_rho,
    column_witness,
    convergents,
    eval_word,
    find_witness,
    fourey_direction,
    fourey_word,
    hurwitz_check,
    is_in_gamma,
    is_upper_unipotent,
    mat_mul,
    mat_pow,
    proj_canonical,
    proj_equal,
    RHO,
    recurrence_classify,
    rho,
    witness_table,
    _BFS_LETTERS,
    _reduce,
)

LETTERS = ("T", "A", "B")


def random_word(rng, length):
    parts = [(rng.choice(LETTERS), rng.choice((-2, -1, 1, 2))) for _ in range(length)]
    return GroupWord.of(*parts)


# ---------------------------------------------------------------------------
# Generators and presentation relations
# ---------------------------------------------------------------------------

def test_generator_matrices():
    assert THETA == (0, -1, 1, 0)
    assert A_MAT == (1, 4, 0, 1)
    assert B_MAT == (5, -8, 2, -3)
    assert eval_word(GroupWord.parse("B"))[0::2] == (5, 2)


def test_presentation_relations():
    assert mat_pow(THETA, 4) == IDENTITY
    assert proj_equal(eval_word(GroupWord.parse("T^2 B T^2 B^-1")), IDENTITY)
    assert proj_equal(eval_word(GroupWord.parse("T^2 A T^-2 A^-1")), IDENTITY)


def test_empty_word_and_powers():
    assert eval_word(GroupWord()) == IDENTITY
    assert eval_word(GroupWord.parse("A^3")) == (1, 12, 0, 1)
    assert rho(GroupWord.parse("A^3")) == (1, 3, 0, 1)


def test_rho_table():
    assert rho(GroupWord.parse("T")) == IDENTITY
    assert rho(GroupWord.parse("A")) == (1, 1, 0, 1)
    assert rho(GroupWord.parse("B")) == (3, -1, 4, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rho_is_homomorphic(seed):
    rng = random.Random(seed)
    w1 = random_word(rng, rng.randrange(0, 6))
    w2 = random_word(rng, rng.randrange(0, 6))
    assert proj_equal(rho(w1 * w2), mat_mul(rho(w1), rho(w2)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conjugates_of_theta_in_kernel(seed):
    rng = random.Random(seed)
    x = random_word(rng, rng.randrange(0, 6))
    w = x * GroupWord.parse("T") * x.inverse()
    assert proj_equal(rho(w), IDENTITY)
    assert is_in_gamma(w)


def test_word_parse_roundtrip():
    for text in ("e", "A", "T A^-1 T A^2 T", "B^-1 A T"):
        w = GroupWord.parse(text)
        assert GroupWord.parse(str(w)) == w


def test_gamma_membership_basics():
    assert is_in_gamma(GroupWord.parse("A"))
    assert not is_in_gamma(GroupWord.parse("B"))
    assert is_in_gamma(GroupWord.parse("T"))  # rho(T) = Id


def test_b_obstruction():
    m = eval_word(GroupWord.parse("B"))
    assert (m[0], m[2]) == (5, 2)
    assert classify_oracle((5, 2)).verdict == "drift"
    assert not is_in_gamma(GroupWord.parse("B"))


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def test_witness_identity():
    assert find_witness((1, 0)) == GroupWord()


def test_witness_four_one():
    w = find_witness((4, 1))
    assert w is not None
    m = eval_word(w)
    assert (m[0], m[2]) in ((4, 1), (-4, -1))
    assert is_upper_unipotent(rho(w))


def test_witness_none_for_drift():
    assert find_witness((5, 2), max_depth=9) is None
    assert find_witness((1, 2), max_depth=9) is None


def test_witness_success_implies_periodic():
    rng = random.Random(23)
    from math import gcd

    found = 0
    while found < 8:
        p = rng.randrange(1, 25)
        q = rng.randrange(0, 25)
        if gcd(p, q) != 1:
            continue
        w = find_witness((p, q), max_depth=9)
        if w is None:
            continue
        found += 1
        assert classify_oracle((p, q)).verdict == "periodic", (p, q, str(w))


def test_find_witness_is_an_early_exit_of_witness_table():
    # Both read one BFS walk; find_witness stops at its first match, so it
    # returns the table's word, or None exactly where the table has no entry.
    from math import gcd

    n, depth, cap = 8, 7, 128
    table = witness_table(n, depth, cap)
    found = missing = 0
    for p in range(0, n + 1):
        for q in range(-n, n + 1):
            if gcd(p, abs(q)) != 1 or (p == 0 and q < 0):
                continue
            w = find_witness((p, q), depth, cap)
            assert w == table.get((p, q)), (p, q)
            found += w is not None
            missing += w is None
    assert found == len(table) >= 10 and missing > 10


# The breadth-first walk that defines find_witness's and witness_table's
# answers (grouptheory._BFS_LETTERS), as the package ran it until the coset
# enumeration recorded the Schreier generators' words.  It stays the fast
# reference for the walk tests below; _ref_bfs is its own reference.
def _witness_bfs(visited: dict[Mat2, tuple[Optional[Mat2], int]], max_depth: int, cap: int):
    """Breadth-first walk over words of length at most ``max_depth``.

    Words are extended by right multiplication with the generator letters in
    the order of ``_BFS_LETTERS``, deduplicated on the matrix modulo sign (the
    ``proj_canonical`` representative), and dropped once an entry exceeds
    ``cap``.  Yields the canonical matrix of every newly reached word, the
    empty word first, after recording ``(parent, letter index)`` in
    ``visited``; ``_reconstruct`` reads the word back from there.

    No representation image is carried: rho is a homomorphism, so callers
    evaluate it on the reconstructed word, and only for the few words whose
    first column they want.  Mod 2, A and B are the identity and T swaps the
    basis vectors, so every first column reached is (1, 0) or (0, 1) mod 2
    and never odd/odd.
    """
    visited[IDENTITY] = (None, -1)
    yield IDENTITY
    frontier = [IDENTITY]
    ncap = -cap
    for _ in range(max_depth):
        level: list[Mat2] = []
        push = level.append
        for m in frontier:
            a, b, c, d = m
            # m A and m A^-1 keep the first column, which is within the cap.
            x, z = 4 * a + b, 4 * c + d
            if ncap <= x <= cap and ncap <= z <= cap:
                n = (a, x, c, z) if a > 0 or (a == 0 and x > 0) else (-a, -x, -c, -z)
                if n not in visited:
                    visited[n] = (m, 0)
                    yield n
                    push(n)
            x, z = b - 4 * a, d - 4 * c
            if ncap <= x <= cap and ncap <= z <= cap:
                n = (a, x, c, z) if a > 0 or (a == 0 and x > 0) else (-a, -x, -c, -z)
                if n not in visited:
                    visited[n] = (m, 1)
                    yield n
                    push(n)
            # m T permutes the entries of m up to sign, so it is within the cap.
            n = (b, -a, d, -c) if b > 0 or (b == 0 and a < 0) else (-b, a, -d, c)
            if n not in visited:
                visited[n] = (m, 2)
                yield n
                push(n)
            w, x, y, z = 5 * a + 2 * b, -8 * a - 3 * b, 5 * c + 2 * d, -8 * c - 3 * d
            if ncap <= w <= cap and ncap <= x <= cap and ncap <= y <= cap and ncap <= z <= cap:
                n = (w, x, y, z) if w > 0 or (w == 0 and x > 0) else (-w, -x, -y, -z)
                if n not in visited:
                    visited[n] = (m, 4)
                    yield n
                    push(n)
            w, x, y, z = -3 * a - 2 * b, 8 * a + 5 * b, -3 * c - 2 * d, 8 * c + 5 * d
            if ncap <= w <= cap and ncap <= x <= cap and ncap <= y <= cap and ncap <= z <= cap:
                n = (w, x, y, z) if w > 0 or (w == 0 and x > 0) else (-w, -x, -y, -z)
                if n not in visited:
                    visited[n] = (m, 5)
                    yield n
                    push(n)
        frontier = level


def _reconstruct(visited, key) -> GroupWord:
    parts = []
    while True:
        parent, gidx = visited[key]
        if parent is None:
            break
        parts.append(_BFS_LETTERS[gidx])
        key = parent
    return GroupWord(_reduce(tuple(reversed(parts))))


def test_parity_lemma():
    # Mod 2, A and B are the identity and T swaps the basis vectors, so no
    # word has an odd/odd first column.
    visited = {}
    nodes = 0
    for m in _witness_bfs(visited, 10, 200):
        nodes += 1
        assert m[0] % 2 == 0 or m[2] % 2 == 0, m
    assert nodes == len(visited) > 10000


def test_odd_odd_witness_search_does_not_walk():
    for d in ((3, 5), (-7, 1), (1, 1), (9, -11)):
        assert find_witness(d) is None
        assert find_witness(d, max_depth=30, entry_cap=10**6) is None


# The walk as it was before rho became lazy: every node carries its rho image,
# and the representation is tested on every word.  Kept as the reference for
# the lean walk _witness_bfs above.
_REF_GENS = tuple(
    (letter, exp, mat_pow(GENS[letter], exp), mat_pow(RHO[letter], exp))
    for letter in ("A", "T", "B")
    for exp in (1, -1)
)


def _ref_bfs(visited, max_depth, cap):
    start = proj_canonical(IDENTITY)
    visited[start] = (None, -1)
    yield start, IDENTITY
    frontier = deque([(start, IDENTITY, 0)])
    while frontier:
        m_canon, rho_m, depth = frontier.popleft()
        if depth >= max_depth:
            continue
        for gidx, (_, _, gmat, grho) in enumerate(_REF_GENS):
            nxt = mat_mul(m_canon, gmat)
            if max(map(abs, nxt)) > cap:
                continue
            nxt_c = proj_canonical(nxt)
            if nxt_c in visited:
                continue
            nrho = mat_mul(rho_m, grho)
            visited[nxt_c] = (m_canon, gidx)
            yield nxt_c, nrho
            frontier.append((nxt_c, nrho, depth + 1))


def _ref_reconstruct(visited, key):
    parts = []
    while True:
        parent, gidx = visited[key]
        if parent is None:
            break
        letter, exp, _, _ = _REF_GENS[gidx]
        parts.append((letter, exp))
        key = parent
    return GroupWord.of(*reversed(parts))


def _ref_find_witness(d, max_depth=14, entry_cap=None):
    p, q = d
    cap = entry_cap if entry_cap is not None else 16 * max(abs(p), abs(q), 1)
    columns = ((p, q), (-p, -q))
    visited = {}
    for m, rho_m in _ref_bfs(visited, max_depth, cap):
        if (m[0], m[2]) in columns and is_upper_unipotent(proj_canonical(rho_m)):
            return _ref_reconstruct(visited, m)
    return None


def _ref_witness_table(max_norm, max_depth, entry_cap=None):
    cap = entry_cap if entry_cap is not None else 16 * max_norm
    visited = {}
    table = {}
    for m, rho_m in _ref_bfs(visited, max_depth, cap):
        if not is_upper_unipotent(proj_canonical(rho_m)):
            continue
        col = (m[0], m[2])
        if col[0] < 0 or (col[0] == 0 and col[1] < 0):
            col = (-col[0], -col[1])
        if max(abs(col[0]), abs(col[1])) <= max_norm and col not in table:
            table[col] = _ref_reconstruct(visited, m)
    return table


def _normalized(p, q):
    return (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)


@pytest.mark.parametrize("cap", [16, 100, 224])
def test_lean_walk_matches_reference(cap):
    visited, ref_visited = {}, {}
    nodes = list(_witness_bfs(visited, 9, cap))
    ref_nodes = [m for m, _ in _ref_bfs(ref_visited, 9, cap)]
    assert nodes == ref_nodes
    assert list(visited.items()) == list(ref_visited.items())


@pytest.mark.parametrize("depth", [6, 9])
@pytest.mark.parametrize("entry_cap", [None, 8])
def test_find_witness_matches_reference(depth, entry_cap):
    # The reference find_witness(d, depth, cap) is the first word of the
    # reference walk with column +-d and upper-unipotent rho, which is the
    # reference table's entry for d at the same cap; one walk per cap serves
    # every direction with that cap.
    by_cap = {}
    for p in range(-12, 13):
        for q in range(-12, 13):
            if gcd(abs(p), abs(q)) == 1:
                n = max(abs(p), abs(q))
                cap = entry_cap if entry_cap is not None else 16 * n
                by_cap.setdefault(cap, []).append((p, q))
    found = 0
    for cap, dirs in by_cap.items():
        ref = _ref_witness_table(12, depth, cap)
        for p, q in dirs:
            w = find_witness((p, q), depth, entry_cap)
            assert w == ref.get(_normalized(p, q)), (p, q, depth, cap)
            found += w is not None
    assert found >= 20


@pytest.mark.parametrize("args", [(8, 7, 128), (20, 10, None)])
def test_witness_table_matches_reference(args):
    table = witness_table(*args)
    assert list(table.items()) == list(_ref_witness_table(*args).items())


@settings(max_examples=25, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 8))
def test_find_witness_matches_reference_random(p, q, depth):
    if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
        return
    assert find_witness((p, q), depth) == _ref_find_witness((p, q), depth)


# ---------------------------------------------------------------------------
# Coset table decider
# ---------------------------------------------------------------------------

def test_coset_table_shape_and_checks():
    cosets = grouptheory._coset_table()  # raises CosetTableError if a check fails
    assert len(cosets) == 9
    assert cosets[0].u_orbit == (0, 1, 2, 3)  # Stab_H(e1) = +-<A>
    # The cusp widths of H: one U-cycle per cusp.
    cycles = {frozenset(c.u_orbit) for c in cosets}
    assert sorted(map(len, cycles)) == [2, 3, 4]
    assert all(cosets[c.s_image].s_image == i for i, c in enumerate(cosets))
    for c in range(9):
        for relator in grouptheory._RELATORS:
            d, r = grouptheory._rewrite(cosets, c, relator)
            assert d == c and proj_equal(r, IDENTITY)
    for name, m in GENS.items():
        exps = grouptheory._su_exponents(m)
        assert proj_equal(grouptheory._su_matrix(exps), m)
        d, r = grouptheory._rewrite(cosets, 0, exps)
        assert d == 0 and proj_equal(r, RHO[name])


@pytest.mark.parametrize(
    "words, index",
    [
        ([[0, 0], [1]], 1),  # PSL(2, Z)
        ([[0, 0], [2]], 3),  # the theta group <S, U^2>
        ([[1], [0, 2, 0]], 3),  # Gamma_0(2) = <U, S U^2 S>
        ([[1], [0, 3, 0]], 4),  # Gamma_0(3)
        ([[1], [0, 4, 0]], 6),  # Gamma_0(4)
    ],
)
def test_enumerate_cosets_known_indices(words, index):
    table, _ = grouptheory._enumerate_cosets(enumerate(words))
    assert len(table) == index
    for c, (s, u, ui) in enumerate(table):
        assert table[s][0] == c and table[u][2] == c and table[ui][1] == c


def test_enumerate_cosets_stops_on_infinite_index():
    with pytest.raises(CosetTableError):
        grouptheory._enumerate_cosets(enumerate([[1], [0, 5, 0]]))


def _without_b(rho_of_word):
    def bad(w):
        return IDENTITY if any(letter == "B" for letter, _ in w.letters) else rho_of_word(w)
    return bad


def _conjugated(rho_of_word):
    def bad(w):
        return proj_canonical(mat_mul(mat_mul(THETA, rho_of_word(w)), mat_pow(THETA, -1)))
    return bad


@pytest.mark.parametrize(
    "corrupt, message", [(_without_b, "B rewrites"), (_conjugated, "A rewrites")]
)
def test_coset_table_refuses_wrong_schreier_images(monkeypatch, corrupt, message):
    # rho on the Schreier generators is evaluated on the words that the
    # enumeration records.  Images that drop B still pass the relators on
    # this table but send B to the identity; those of another homomorphism
    # (rho conjugated) fail the check against RHO at A.
    monkeypatch.setattr(grouptheory, "rho", corrupt(grouptheory.rho))
    with pytest.raises(CosetTableError, match=message):
        grouptheory._coset_table.__wrapped__()


@pytest.mark.parametrize("letter", ["A", "T"])
def test_coset_table_refuses_a_corrupted_entry_word(monkeypatch, letter):
    # The relators' rewriting reads every S and U entry, so one entry word
    # times A, which moves rho, or times T, which rho cannot see, is refused
    # by the relator check or by the check of T, A and B's words.
    enumerate_cosets = grouptheory._enumerate_cosets
    table, words = enumerate_cosets(
        (name, grouptheory._su_exponents(m)) for name, m in GENS.items())
    entries = [(c, x) for c in range(len(table)) for x in (grouptheory._S, grouptheory._U)]
    assert sum(bool(words[c][x]) for c, x in entries) >= 5  # deduced, not defined
    for c, x in entries:
        def corrupted(subgroup, c=c, x=x):
            table, words = enumerate_cosets(subgroup)
            w = list(words[c][x])
            grouptheory._extend(w, [(letter, 1)])
            words[c][x] = tuple(w)
            return table, words

        monkeypatch.setattr(grouptheory, "_enumerate_cosets", corrupted)
        with pytest.raises(CosetTableError, match="relator|rewrites"):
            grouptheory._coset_table.__wrapped__()


def test_coset_table_refuses_the_words_of_another_basis(monkeypatch):
    # T -> A T A^-1 is an automorphism of Z/2 * Z * Z that keeps rho, so
    # words rewritten by it pass the relator checks and the rho checks; only
    # the check of T, A and B's own words refuses them.
    enumerate_cosets = grouptheory._enumerate_cosets

    def conjugated(subgroup):
        table, words = enumerate_cosets(subgroup)
        for row in words:
            for x, word in enumerate(row):
                w = []
                for letter, e in word:
                    image = [("A", 1), ("T", e), ("A", -1)] if letter == "T" else [(letter, e)]
                    grouptheory._extend(w, image)
                row[x] = tuple(w)
        return table, words

    monkeypatch.setattr(grouptheory, "_enumerate_cosets", conjugated)
    with pytest.raises(CosetTableError, match="T rewrites to the word"):
        grouptheory._coset_table.__wrapped__()


def _su_path(word):
    """The S/U exponents of a T/A/B word: its letters' paths, each inverted
    for a negative exponent, concatenated with the exponents merged at each
    join (U^e S ... U^f times U^g S ... is U^e S ... U^(f+g) S ...)."""
    path = [0]
    for letter, e in word.letters:
        step = grouptheory._su_exponents(GENS[letter])
        if e < 0:
            step = [-k for k in reversed(step)]  # S^-1 = S in PSL(2, Z)
        for _ in range(abs(e)):
            path[-1] += step[0]
            path += step[1:]
    return path


def test_table_words_round_trip():
    # Rewriting a word's S/U path from H's coset returns to it with exactly
    # the word's free reduction in Z/2 * Z * Z (T's exponent mod 2), and
    # with rho of the word.
    cosets = grouptheory._coset_table()
    rng = random.Random(1616)
    for _ in range(500):
        parts, letter = [], None
        for _ in range(rng.randint(0, 12)):
            letter = rng.choice([x for x in LETTERS if x != letter])
            parts.append((letter, rng.choice((-3, -2, -1, 1, 2, 3))))
        word = GroupWord(tuple(parts))
        path = _su_path(word)
        assert proj_equal(grouptheory._su_matrix(path), eval_word(word)), word
        reduced = []
        grouptheory._extend(reduced, word.letters)
        assert grouptheory._rewrite_word(cosets, 0, path) == (0, reduced), word
        c, r = grouptheory._rewrite(cosets, 0, path)
        assert c == 0 and proj_canonical(r) == rho(word), word


@pytest.mark.parametrize("d", [(0, 0), (2, 4), (-3, 0)])
def test_decider_refuses_non_primitive(d):
    with pytest.raises(ValueError):
        column_has_witness(*d)


HUGE = ((10**100, 10**200 + 1), (2 * 10**100 + 1, 10**100 + 1))


def test_euclid_path():
    for p, q in ((1, 0), (0, 1), (5, 2), (-4, 9), (1752, -21169), (-3, -7), (800001, 200008),
                 *HUGE):
        m = grouptheory._su_matrix(grouptheory._euclid(p, q) + [0])
        assert (m[0], m[2]) in ((p, q), (-p, -q))


def _signed_primitive(n):
    return [
        (p, q) for p in range(-n, n + 1) for q in range(-n, n + 1)
        if gcd(abs(p), abs(q)) == 1
    ]


def test_decider_matches_classify_x_up_to_60():
    dirs = _signed_primitive(60)
    assert len(dirs) == 8816
    periodic = 0
    for d in dirs:
        expect = classify_x(d).verdict
        assert classify_group(d).verdict == expect, d
        assert column_has_witness(*d) == (expect == "periodic"), d
        periodic += expect == "periodic"
    assert periodic > 200


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(-3000, 3000), st.integers(-3000, 3000)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    )
)
def test_decider_matches_oracle_random(d):
    assert classify_group(d).verdict == classify_oracle(d).verdict


def test_decider_certificate():
    assert classify_group((3, 1)).certificate == {"reaches_h": False}
    c = classify_group((4, 1))
    assert c.verdict == "periodic" and c.method == "group"
    assert c.certificate == {"reaches_h": True, "rho": [[1, 1], [0, 1]]}
    c = classify_group((5, 2))
    assert c.verdict == "drift" and c.certificate["reaches_h"]
    assert not is_upper_unipotent(column_rho(5, 2))


def test_every_fourey_direction_has_a_witness():
    nonzero = [v for v in range(-3, 4) if v]
    count = 0
    for n in range(0, 4):
        for a0 in range(-3, 4):
            for tail in itertools.product(nonzero, repeat=n):
                assert column_has_witness(*fourey_direction([a0, *tail])), (a0, tail)
                count += 1
    assert count == 1813


def test_drift_witness_search_does_not_walk():
    for d in ((5, 2), (1, 2), (2, 7), (-4, 9)):
        assert classify_oracle(d).verdict == "drift"
        assert find_witness(d) is None
        assert find_witness(d, max_depth=30, entry_cap=10**6) is None


def test_witness_table_reads_back_only_table_words(monkeypatch):
    # A word is built only for columns that have a witness.
    built = []
    column_word = grouptheory._column_word

    def counted(p, q):
        built.append((p, q))
        return column_word(p, q)

    monkeypatch.setattr(grouptheory, "_column_word", counted)
    table = witness_table(30, 12, 480)
    assert len(set(built)) == len(built) >= len(table) >= 40
    assert all(column_has_witness(*col) for col in built)
    assert set(table) <= set(built)


def test_coset_table_is_built_on_first_use():
    src = os.path.dirname(os.path.dirname(grouptheory.__file__))
    code = (
        "import mucube; from mucube import grouptheory; mucube.build_x(); mucube.build_y(); "
        "assert grouptheory._coset_table.cache_info().currsize == 0; "
        "mucube.find_witness((4, 1)); "
        "assert grouptheory._coset_table.cache_info().currsize == 1"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr


# The walk-based search as it was before the coset table gave the words:
# find_witness stops the walk at its first word with column +-d, and
# witness_table reads back the first word of every in-bound column.  Kept as
# the reference for the rewriting of grouptheory._column_word.
def _walk_find_witness(d, max_depth=14, entry_cap=None):
    p, q = d
    if p % 2 and q % 2 or not column_has_witness(p, q):
        return None
    cap = entry_cap if entry_cap is not None else 16 * max(abs(p), abs(q), 1)
    columns = ((p, q), (-p, -q))
    visited = {}
    for m in _witness_bfs(visited, max_depth, cap):
        if (m[0], m[2]) in columns:
            return _reconstruct(visited, m)
    return None


def _walk_witness_table(max_norm, max_depth, entry_cap=None):
    cap = entry_cap if entry_cap is not None else 16 * max_norm
    visited = {}
    table = {}
    no_witness = set()
    for m in _witness_bfs(visited, max_depth, cap):
        a, c = m[0], m[2]
        if a > max_norm or not -max_norm <= c <= max_norm:
            continue
        col = (a, c) if a > 0 or c > 0 else (0, -c)
        if col in table or col in no_witness:
            continue
        if column_has_witness(*col):
            table[col] = _reconstruct(visited, m)
        else:
            no_witness.add(col)
    return table


# witness_table as it was before the Stern-Brocot descent decided its
# columns: column_has_witness on every sign-normalized column in the box
# that is not odd/odd.  Kept as the reference for grouptheory._witness_columns.
def _per_column_witnesses(max_norm):
    for p in range(max_norm + 1):
        for q in range(-max_norm, max_norm + 1):
            if p == 0 and q != 1 or p % 2 and q % 2 or gcd(p, abs(q)) != 1:
                continue
            if column_has_witness(p, q):
                yield p, q


def _ref_witness_table_by_column(max_norm, max_depth, entry_cap=None):
    cap = entry_cap if entry_cap is not None else 16 * max_norm
    found = []
    for p, q in _per_column_witnesses(max_norm):
        word = grouptheory._column_word(p, q)
        if grouptheory._reachable(word, max_depth, cap):
            found.append((grouptheory._walk_order(word), (p, q), word))
    found.sort()
    return {col: grouptheory._checked(word) for _, col, word in found}


@pytest.mark.parametrize("args", [
    (30, 12, 480), (8, 7, 128), (20, 10, None), (14, 12, 224), (60, 14, None),
    (0, 12, None), (1, 12, None), (-3, 12, None),
])
def test_witness_table_matches_the_per_column_reference(args):
    table = witness_table(*args)
    assert list(table.items()) == list(_ref_witness_table_by_column(*args).items())


@pytest.mark.parametrize("n", [*range(13), 60, 120])
def test_witness_columns_match_the_per_column_decider(n):
    cols = list(grouptheory._witness_columns(n))
    assert len(cols) == len(set(cols)), n
    assert set(cols) == set(_per_column_witnesses(n)), n
    assert not any(p % 2 and q % 2 for p, q in cols), n


def test_witness_columns_count_the_periodic_classes_up_to_230():
    # 258 of the 16155 canonical classes p >= q >= 0 up to 230 are periodic,
    # as column_has_witness finds one by one.
    canonical = [(p, q) for p, q in grouptheory._witness_columns(230) if p >= q >= 0]
    assert len(canonical) == 258


# grouptheory._witness_columns as it was before its nodes carried only the
# bottom row of their rho product: full 2x2 products through mat_mul, the
# step tables rebuilt with _rewrite on every call, and the verdict by
# is_upper_unipotent.  Kept as the reference for the one-row descent.
def _ref_witness_columns(max_norm):
    if max_norm < 1:
        return
    yield (1, 0)
    yield (0, 1)
    cosets = grouptheory._coset_table()
    rewrite = grouptheory._rewrite
    l_steps = [rewrite(cosets, c, (0, -1, 0)) for c in range(len(cosets))]  # S U^-1 S = -L
    r_steps = [rewrite(cosets, c, (1,)) for c in range(len(cosets))]
    to_h = [row.u_rho[row.u_orbit.index(0)] if 0 in row.u_orbit else None for row in cosets]
    for flip, start in ((False, (0, IDENTITY)), (True, rewrite(cosets, 0, (0, 0)))):
        stack = [(1, 0, 0, 1, *start)]
        while stack:
            a, c, b, d, coset, r = stack.pop()
            x, y = a + b, c + d
            g, gl = l_steps[coset]
            gr = mat_mul(r, gl)
            tail = to_h[g]
            if tail is not None and is_upper_unipotent(mat_mul(gr, tail)):
                yield (y, -x) if flip else (x, y)
            if x + b <= max_norm and y + d <= max_norm:
                stack.append((x, y, b, d, g, gr))
            if a + x <= max_norm and c + y <= max_norm:
                k, kr = r_steps[coset]
                stack.append((a, c, x, y, k, mat_mul(r, kr)))


@pytest.mark.parametrize("n", [*range(13), 30, 60, 120, 230])
def test_witness_columns_match_the_matrix_descent(n):
    # The same columns in the same order as the descent that carries whole
    # rho products.
    assert list(grouptheory._witness_columns(n)) == list(_ref_witness_columns(n))


@settings(max_examples=8, deadline=None)
@given(st.integers(-5, 400))
def test_witness_columns_match_the_matrix_descent_random(n):
    assert list(grouptheory._witness_columns(n)) == list(_ref_witness_columns(n))


def _det(m):
    return m[0] * m[3] - m[1] * m[2]


def test_one_row_lemma():
    # Every rho the descent reads has determinant 1, so its verdict needs
    # only the lower-left entry of the product, which the bottom row gives.
    cosets = grouptheory._coset_table()
    for row in cosets:
        assert _det(row.s_rho) == 1
        assert all(_det(m) == 1 for m in row.u_rho + row.v_rho)
    steps, (s, s_c, s_d) = grouptheory._descent_steps()
    assert (s, (s_c, s_d)) == (cosets[0].s_image, cosets[0].s_rho[2:])
    for c, (g, la, lb, lc, ld, k, ka, kb, kc, kd, w) in enumerate(steps):
        assert (g, (la, lb, lc, ld)) == grouptheory._rewrite(cosets, c, (0, -1, 0))
        assert (k, (ka, kb, kc, kd)) == grouptheory._rewrite(cosets, c, (1,))
        assert _det((la, lb, lc, ld)) == _det((ka, kb, kc, kd)) == 1
        orbit = cosets[g].u_orbit
        assert (w is None) == (0 not in orbit), c
        if w is not None:
            m = mat_mul((la, lb, lc, ld), cosets[g].u_rho[orbit.index(0)])
            assert w == (m[0], m[2]), c
    rng = random.Random(1515)
    unipotent = 0
    for _ in range(2000):
        r = rho(random_word(rng, rng.randint(0, 8)))
        assert _det(r) == 1
        assert is_upper_unipotent(r) == (r[2] == 0), r
        unipotent += r[2] == 0
    assert 0 < unipotent < 2000


def test_witness_table_reuses_its_step_tables(monkeypatch):
    # The descent's steps are rewritten once, on first use; a second table
    # rewrites nothing with rho images.
    witness_table(30, 12, 480)
    calls = []
    rewrite = grouptheory._rewrite

    def counted(*args):
        calls.append(args)
        return rewrite(*args)

    monkeypatch.setattr(grouptheory, "_rewrite", counted)
    assert len(witness_table(30, 12, 480)) == 46
    assert calls == []


def test_find_witness_and_complete_witness_read_one_euclid_path(monkeypatch):
    # The rho walk and the word walk of a column share one path, in
    # find_witness and in `mucube witness --complete`.
    from mucube import cli

    grouptheory._coset_table()
    paths = []
    euclid = grouptheory._euclid

    def counted(p, q):
        paths.append((p, q))
        return euclid(p, q)

    monkeypatch.setattr(grouptheory, "_euclid", counted)
    for d in ((4, 1), (12, 1), (5, 2), (1752, -21169), (800001, 200008)):
        paths.clear()
        find_witness(d)
        assert paths == [d], d
        paths.clear()
        cli._complete_witness(*d)
        assert paths == [d], d


def test_column_witness_reads_one_euclid_path(monkeypatch):
    # The verdict and the word of a column come from the same path, for
    # columns with a witness and for drift ones alike.
    grouptheory._coset_table()
    paths = []
    euclid = grouptheory._euclid

    def counted(p, q):
        paths.append((p, q))
        return euclid(p, q)

    monkeypatch.setattr(grouptheory, "_euclid", counted)
    for d in ((4, 1), (12, 1), (5, 2), (1, 2), (1752, -21169), (800001, 200008)):
        paths.clear()
        column_witness(*d)
        assert paths == [d], d
    assert column_witness(800001, 200008) is not None
    assert column_witness(5, 2) is None
    paths.clear()
    with pytest.raises(ValueError):
        column_witness(2, 4)
    assert paths == []


@pytest.mark.parametrize("depth, entry_cap", [(12, 480), (14, None), (9, 40)])
def test_find_witness_and_table_match_the_walk(depth, entry_cap):
    # The walk's find_witness(d, depth, cap) reads the same walk as its
    # witness_table at that cap, so one walk per cap serves every direction.
    by_cap = {}
    for d in _signed_primitive(40):
        n = max(map(abs, d))
        by_cap.setdefault(entry_cap if entry_cap is not None else 16 * n, []).append(d)
    found = 0
    for cap, dirs in by_cap.items():
        ref = _walk_witness_table(40, depth, cap)
        for d in dirs:
            w = find_witness(d, depth, entry_cap)
            assert w == ref.get(_normalized(*d)), (d, depth, cap)
            found += w is not None
    assert found >= 100
    table = witness_table(40, depth, entry_cap)
    assert list(table.items()) == list(_walk_witness_table(40, depth, entry_cap).items())
    for d in itertools.islice(table, 0, None, 7):
        assert find_witness(d, depth, entry_cap) == _walk_find_witness(d, depth, entry_cap), d


@pytest.mark.parametrize("depth", [-1, 0, 3])
@pytest.mark.parametrize("entry_cap", [-5, 0, 1, None])
def test_edge_arguments_match_the_walk(depth, entry_cap):
    for d in _signed_primitive(8):
        assert find_witness(d, depth, entry_cap) == _walk_find_witness(d, depth, entry_cap), d
    for n in (-1, 0, 1, 8):
        table = witness_table(n, depth, entry_cap)
        assert list(table.items()) == list(_walk_witness_table(n, depth, entry_cap).items()), n


def test_witness_words_walk_nothing():
    assert str(find_witness((4, 1))) == "A T"
    assert str(find_witness((12, 1))) == "A^3 T"
    found = 0
    for coeffs in itertools.islice(itertools.product(range(-3, 4), [-3, -1, 2], [1, -2]), 0, None, 5):
        d = fourey_direction(coeffs)
        w = find_witness(d)
        if w is not None:
            m = eval_word(w)
            assert (m[0], m[2]) in (d, (-d[0], -d[1])) and is_in_gamma(w), coeffs
            found += 1
    assert found >= 5
    w = find_witness((1752, -21169), max_depth=17)
    assert str(w) == "T A^3 T A^-3 T A^3 T A^-3 T"
    m = eval_word(w)
    assert (m[0], m[2]) in ((1752, -21169), (-1752, 21169)) and is_in_gamma(w)
    assert find_witness((1752, -21169), max_depth=16) is None
    assert column_witness(1752, -21169) == w
    assert len(witness_table(30, 12, 480)) == 46


def test_column_witness_up_to_60():
    # A witness for every periodic column and none for a drift one; long
    # words come as they are, with no depth or cap.
    longest = 0
    for d in _signed_primitive(60):
        w = column_witness(*d)
        assert (w is not None) == column_has_witness(*d), d
        if w is not None:
            m = eval_word(w)
            assert (m[0], m[2]) in (d, (-d[0], -d[1])) and is_in_gamma(w), d
            assert not w.letters or w.letters[-1][0] != "A", d
            longest = max(longest, sum(abs(e) for _, e in w.letters))
    assert longest > 14
    with pytest.raises(ValueError):
        column_witness(2, 4)


@pytest.mark.parametrize("n", [2, 5, 8, 26, 302])
def test_third_cusp_runs_give_long_witnesses(n):
    # For n = 3k + 2, this Euclid path runs n steps through the V-cycle of
    # cosets 0, 2 and 4 (loop word T A^-1 B), and its column is periodic
    # with a shortest witness of 2n + 1 = |q| - |p| letters.  (145, 162), at
    # n = 8, is the smallest column with such a run found up to 400.
    path = [0, (-2, n), -3, -(n + 1)]
    m = grouptheory._su_matrix(path + [0])
    p, q = m[0], m[2]
    assert grouptheory._euclid(p, q) == path
    w = column_witness(p, q)
    assert sum(abs(e) for _, e in w.letters) == 2 * n + 1 == abs(q) - abs(p)
    assert eval_word(w)[0::2] in ((p, q), (-p, -q))
    if n <= 26:
        assert classify_all((p, q)).verdict == "periodic"
    if n == 8:
        assert (p, q) == (145, 162) and find_witness((p, q), 14) is None


def test_rewriters_agree_up_to_60():
    # _rewrite carries rho images and _rewrite_word carries T/A/B words
    # through the same coset table.  The word of h = G U^j, before its
    # trailing A is stripped, must have column_rho's image up to sign and
    # first column +-(p, q).
    cosets = grouptheory._coset_table()
    reached = 0
    for p, q in _signed_primitive(60):
        exps = grouptheory._euclid(p, q) + [0]
        c, w = grouptheory._rewrite_word(cosets, 0, exps)
        assert c == grouptheory._rewrite(cosets, 0, exps)[0], (p, q)
        r = column_rho(p, q)
        orbit = cosets[c].u_orbit
        assert (r is not None) == (0 in orbit), (p, q)
        if r is None:
            continue
        grouptheory._extend(w, cosets[c].u_words[orbit.index(0)])
        word = GroupWord(tuple(w))
        m = eval_word(word)
        assert (m[0], m[2]) in ((p, q), (-p, -q)), (p, q)
        assert proj_equal(rho(word), r), (p, q)
        reached += 1
    assert reached == 3908


# Euclid's path and the rewriting as they were before the path's runs of -2
# were compressed: one item per exponent, so the walk costs the sum of the
# partial quotients.  Kept as the reference for grouptheory._euclid,
# _rewrite and _rewrite_word.
def _ref_euclid(p, q):
    ks = []
    while q:
        k = p // q
        ks.append(k)
        p, q = q, k * q - p
    return ks


def _ref_rewrite(cosets, c, exps):
    r = IDENTITY
    for i, e in enumerate(exps):
        if i:
            row = cosets[c]
            c, r = row.s_image, mat_mul(r, row.s_rho)
        row = cosets[c]
        loops, j = divmod(e, len(row.u_orbit))
        if loops:
            r = mat_mul(r, mat_pow(row.u_rho[-1], loops))
        c, r = row.u_orbit[j], mat_mul(r, row.u_rho[j])
    return c, r


def _ref_rewrite_word(cosets, c, exps):
    w = []
    for i, e in enumerate(exps):
        if i:
            row = cosets[c]
            c = row.s_image
            grouptheory._extend(w, row.s_word)
        row = cosets[c]
        loops, j = divmod(e, len(row.u_orbit))
        if loops:
            grouptheory._extend(w, grouptheory._word_pow(row.u_words[-1], loops))
        c = row.u_orbit[j]
        grouptheory._extend(w, row.u_words[j])
    return c, w


def _ref_column(p, q):
    """column_rho(p, q) and, where H has the column, _column_word(p, q), by
    the step-by-step walk; (None, None) where H has not."""
    cosets = grouptheory._coset_table()
    exps = _ref_euclid(p, q) + [0]
    c, r = _ref_rewrite(cosets, 0, exps)
    d, w = _ref_rewrite_word(cosets, 0, exps)
    assert c == d
    orbit = cosets[c].u_orbit
    if 0 not in orbit:
        return None, None
    j = orbit.index(0)
    grouptheory._extend(w, cosets[c].u_words[j])
    if w and w[-1][0] == "A":
        w.pop()
    return proj_canonical(mat_mul(r, cosets[c].u_rho[j])), GroupWord(tuple(w))


def _expanded(path):
    out = []
    for e in path:
        out += [e[0]] * e[1] if isinstance(e, tuple) else [e]
    return out


def _check_compressed_walk(p, q):
    """The compressed path of (p, q) against the step-by-step one; returns
    its number of runs."""
    path = grouptheory._euclid(p, q)
    assert _expanded(path) == _ref_euclid(p, q), (p, q)
    runs = [e for e in path if isinstance(e, tuple)]
    assert not path or not isinstance(path[0], tuple), (p, q)
    assert all(e[0] == -2 and e[1] > 1 for e in runs), (p, q)
    # Runs are maximal: after the first item, no -2 or run follows another.
    minus_two = [e == -2 or isinstance(e, tuple) for e in path[1:]]
    assert not any(a and b for a, b in zip(minus_two, minus_two[1:])), (p, q)
    r, word = _ref_column(p, q)
    assert column_rho(p, q) == r, (p, q)
    if word is not None:
        assert grouptheory._column_word(p, q) == word, (p, q)
    return len(runs)


def test_compressed_walk_matches_the_step_by_step_walk_up_to_80():
    dirs = _signed_primitive(80)
    assert sum(_check_compressed_walk(*d) for d in dirs) > 5000
    # Each coset's V-cycle, V = S U^-2, is the walk of single V steps.
    cosets = grouptheory._coset_table()
    for c, row in enumerate(cosets):
        for j, d in enumerate(row.v_orbit):
            assert (d, row.v_rho[j]) == _ref_rewrite(cosets, c, [0] + [-2] * j), (c, j)
            assert row.v_words[j] == tuple(_ref_rewrite_word(cosets, c, [0] + [-2] * j)[1])
        L = len(row.v_orbit)
        assert _ref_rewrite(cosets, c, [0] + [-2] * L) == (c, row.v_rho[L])


def test_compressed_walk_matches_on_large_partial_quotients():
    # Directions p / q = [a0; a1, ..., an] with partial quotients up to
    # 5000, with all four signs and in both orders.  The path has at most
    # two items per partial quotient.
    rng = random.Random(47)
    runs = 0
    for _ in range(20):
        qs = [rng.choice((rng.randrange(1, 5), rng.randrange(1, 5001)))
              for _ in range(rng.randrange(1, 6))]
        p, q = 1, 0
        for a in reversed(qs):
            p, q = a * p + q, p
        for d in ((p, q), (-p, q), (p, -q), (-p, -q)):
            for p1, q1 in (d, d[::-1]):
                runs += _check_compressed_walk(p1, q1)
                assert len(grouptheory._euclid(p1, q1)) <= 2 * len(qs), (p1, q1, qs)
    assert runs > 50


def test_huge_directions_are_decided():
    # Each path has a run of more than 10^99 exponents -2; the walk over its
    # exponents one by one could not end.  The verdicts keep the sign and
    # swap laws, and the odd/odd one is drift, as parity demands.
    for p, q in HUGE:
        assert max(e[1] for e in grouptheory._euclid(p, q) if isinstance(e, tuple)) > 10**99
        images = ((p, q), (-p, q), (p, -q), (q, p), (-q, p))
        assert len({column_has_witness(*d) for d in images}) == 1
        assert len({classify_group(d).verdict for d in images}) == 1
    periodic, odd_odd = HUGE
    assert column_has_witness(*periodic) and classify_group(periodic).verdict == "periodic"
    assert classify_group(periodic).certificate["rho"] == [[1, 1], [0, 1]]
    assert not column_has_witness(*odd_odd) and classify_group(odd_odd).verdict == "drift"
    w = column_witness(*periodic)
    k = 10**100 // 4
    assert str(w) == f"T A^-{k} T A^{k} T"
    m = eval_word(w)
    assert (m[0], m[2]) in (periodic, (-periodic[0], -periodic[1])) and is_in_gamma(w)
    assert find_witness(periodic) is None  # far beyond depth 14


def test_word_powers_and_reduction():
    w = (("T", 1), ("A", -1), ("B", 1))
    for n in range(-4, 5):
        out = grouptheory._word_pow(w, n)
        assert proj_equal(eval_word(GroupWord(tuple(out))), mat_pow(eval_word(GroupWord(w)), n)), n
    assert grouptheory._word_pow((("A", 2),), -3) == [("A", -6)]
    out = [("B", 1), ("T", 1), ("A", 2)]
    grouptheory._extend(out, [("A", -2), ("T", 1), ("B", 2), ("T", -1)])
    assert out == [("B", 3), ("T", 1)]


# ---------------------------------------------------------------------------
# Freeness of H on T, A, B
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "words, signature",
    [
        ([[0, 0], [1]], (1, 1, 1, 1)),  # PSL(2, Z)
        ([[0, 0], [2]], (3, 1, 0, 2)),  # the theta group
        ([[1], [0, 2, 0]], (3, 1, 0, 2)),  # Gamma_0(2)
        ([[1], [0, 3, 0]], (4, 0, 1, 2)),  # Gamma_0(3)
        ([[1], [0, 4, 0]], (6, 0, 0, 3)),  # Gamma_0(4)
        ([grouptheory._su_exponents(m) for m in GENS.values()], (9, 1, 0, 3)),  # H
    ],
)
def test_signature(words, signature):
    index, e2, e3, cusps = grouptheory._signature(grouptheory._enumerate_cosets(enumerate(words))[0])
    assert (index, e2, e3, cusps) == signature
    # All of these have genus 0: 12 g = 12 + index - 3 e2 - 4 e3 - 6 cusps.
    assert 12 + index - 3 * e2 - 4 * e3 - 6 * cusps == 0


# The entries of m X that the walk holds to its cap when it steps by X.
_CAPPED = {"A": (1, 3), "T": (), "B": (0, 1, 2, 3)}


def test_walk_is_a_tree():
    # H is free on T, A, B, so the only child of a node that the walk's
    # deduplication rejects is the node's parent: the inverse step.
    visited = {}
    list(_witness_bfs(visited, 10, 300))
    depth = {IDENTITY: 0}
    for m, (parent, _) in visited.items():  # parents come first
        if parent is not None:
            depth[m] = depth[parent] + 1
    rejected = 0
    for m, (parent, _) in visited.items():
        if depth[m] == 10:
            continue
        for gidx, (letter, exp) in enumerate(grouptheory._BFS_LETTERS):
            if (letter, exp) == ("T", -1):
                continue
            n = mat_mul(m, mat_pow(GENS[letter], exp))
            if any(abs(n[i]) > 300 for i in _CAPPED[letter]):
                continue
            n = proj_canonical(n)
            if visited[n] != (m, gidx):
                assert n == parent, (m, letter, exp)
                rejected += 1
    assert rejected == len(visited) - 1 - sum(d == 10 for d in depth.values())


@pytest.mark.parametrize("cap", [4, 16, 60])
def test_reachable_is_the_walks_test_word_by_word(cap):
    # Every word the walk reaches passes _reachable, and every one-letter
    # extension of such a word that stays reduced (T only as T^1, since
    # T^-1 = -T and T^2 = -I) passes it exactly when the walk reaches it.
    visited = {}
    reached = {_reconstruct(visited, m) for m in _witness_bfs(visited, 7, cap)}
    rejected = 0
    for w in reached:
        assert grouptheory._reachable(w, 7, cap), w
        last = w.letters[-1] if w.letters else (None, 0)
        for letter, exp in grouptheory._BFS_LETTERS:
            if (letter, exp) == ("T", -1) or letter == last[0] and (letter == "T" or exp * last[1] < 0):
                continue
            child = w * GroupWord.of((letter, exp))
            if sum(abs(e) for _, e in child.letters) > 7:
                continue
            assert grouptheory._reachable(child, 7, cap) == (child in reached), (child, cap)
            rejected += child not in reached
    assert rejected > 0


def _split_s_pair(table):
    c = next(c for c, row in enumerate(table) if row[0] != c)
    d = table[c][0]
    table[c][0], table[d][0] = c, d


def _move_s_fixed_coset(table):
    c = next(c for c, row in enumerate(table) if row[0] == c)
    table[c][0] = (c + 1) % len(table)


@pytest.mark.parametrize("corrupt", [_split_s_pair, _move_s_fixed_coset])
def test_coset_table_refuses_a_corrupted_s_image(monkeypatch, corrupt):
    enumerate_cosets = grouptheory._enumerate_cosets

    def corrupted(subgroup):
        table, words = enumerate_cosets(subgroup)
        corrupt(table)
        return table, words

    monkeypatch.setattr(grouptheory, "_enumerate_cosets", corrupted)
    with pytest.raises(CosetTableError, match="signature"):
        grouptheory._coset_table.__wrapped__()


def test_gamma_action_preserves_classes():
    # Random periodicity-group elements preserve both the periodic and the
    # drift class of a direction.
    rng = random.Random(29)
    reps = 0
    while reps < 50:
        # products of A-powers and conjugates of T
        w = GroupWord()
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                w = w * GroupWord.of(("A", rng.choice((-2, -1, 1, 2))))
            else:
                x = random_word(rng, rng.randrange(0, 3))
                w = w * (x * GroupWord.parse("T") * x.inverse())
        if not is_in_gamma(w):
            continue
        m = eval_word(w)
        if max(abs(v) for v in m) > 400:
            continue
        reps += 1
        for d, verdict in (((1, 0), "periodic"), ((1, 2), "drift")):
            img = (m[0] * d[0] + m[1] * d[1], m[2] * d[0] + m[3] * d[1])
            assert classify_oracle(img).verdict == verdict, (str(w), d, img)


def test_density_family_word_and_matrix():
    conj = GroupWord.parse("B^-1 A T")
    base = GroupWord.parse("B^-1 A T A^-1 B")
    for n in range(0, 9):
        wn = GroupWord()
        for _ in range(n):
            wn = wn * conj
        word = wn * base * wn.inverse()
        m = eval_word(word)
        expect = (
            18 * n * n + 36 * n + 18,
            -18 * n * n - 42 * n - 25,
            18 * n * n + 30 * n + 13,
            -18 * n * n - 36 * n - 18,
        )
        assert m == expect or m == tuple(-v for v in expect)
        assert is_in_gamma(word)


# ---------------------------------------------------------------------------
# Fourey fractions
# ---------------------------------------------------------------------------

def test_fourey_word_examples():
    w = fourey_word([0, 1])
    m = eval_word(w)
    assert (m[0], m[2]) in ((4, 1), (-4, -1))
    assert is_in_gamma(w)
    w2 = fourey_word([1])
    m2 = eval_word(w2)
    assert (m2[0], m2[2]) in ((1, 4), (-1, -4))
    assert is_in_gamma(w2)


def test_fourey_direction_values():
    assert fourey_direction([0, 1]) == (4, 1)
    assert fourey_direction([1]) == (1, 4)
    assert ContinuedFraction(0, (4,)).value() == Fraction(1, 4)
    assert ContinuedFraction(4, (4,)).value() == Fraction(17, 4)


def test_finite_fraction_quotients_stop_at_its_depth():
    assert ContinuedFraction.fourey([1, 2]).quotients(5) == [4, 8]


def test_fourey_words_match_convergents_and_gamma():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(0, 4)
        coeffs = [rng.randrange(-3, 4)] + [
            rng.choice([v for v in range(-3, 4) if v]) for _ in range(n)
        ]
        w = fourey_word(coeffs)
        assert is_in_gamma(w)
        m = eval_word(w)
        d = fourey_direction(coeffs)
        assert (m[0], m[2]) in (d, (-d[0], -d[1]))


def test_convergent_identity_random():
    rng = random.Random(37)
    for _ in range(100):
        coeffs = [rng.randrange(-3, 4)] + [
            rng.choice([v for v in range(-3, 4) if v]) for _ in range(12)
        ]
        cf = ContinuedFraction.fourey(coeffs)
        convergents(cf, 12)  # raises on identity failure


def test_convergents_simple():
    cf = ContinuedFraction(0, (4,))
    assert convergents(cf, 1) == [(0, 1), (1, 4)]
    cf2 = ContinuedFraction(4, (4,))
    assert convergents(cf2, 1)[-1] == (17, 4)


# ---------------------------------------------------------------------------
# Hurwitz bound
# ---------------------------------------------------------------------------

def test_hurwitz_random_k1_k2():
    rng = random.Random(41)
    for k in (1, 2):
        for _ in range(30):
            coeffs = [
                rng.choice([v for v in range(-k - 3, k + 4) if abs(v) >= k])
                for _ in range(55)
            ]
            assert hurwitz_check(coeffs, k, 12)


def test_hurwitz_alternating_extremal():
    for k in (1, 2):
        alt = [k if i % 2 == 0 else -k for i in range(90)]
        assert hurwitz_check(alt, k, 40)


def test_hurwitz_input_validation():
    with pytest.raises(ValueError):
        hurwitz_check([1, 0, 1] + [1] * 60, 1, 2)
    with pytest.raises(ValueError):
        hurwitz_check([1] * 10, 1, 5)  # too few coefficients
    with pytest.raises(ValueError):
        hurwitz_check([1] * 60, 2, 10)  # |a_i| < k


# ---------------------------------------------------------------------------
# Recurrence classification
# ---------------------------------------------------------------------------

def test_recurrence_cases():
    assert recurrence_classify(ContinuedFraction.fourey([0, 4, 4, 4])) == PERIODIC_SLOPE
    assert recurrence_classify(
        ContinuedFraction.fourey([0], period=[2, 3])
    ) == RECURRENT_ALL
    assert recurrence_classify(
        ContinuedFraction.fourey([0], period=[1, -1])
    ) == INCONCLUSIVE
    assert recurrence_classify(
        ContinuedFraction.fourey([0], period=[-2, 2])
    ) == RECURRENT_FROM_CONE_POINTS
    assert recurrence_classify(
        ContinuedFraction.fourey([1], period=[1, 2])
    ) == RECURRENT_ALL
    assert recurrence_classify(
        ContinuedFraction.fourey([0], period=[1])
    ) == RECURRENT_FROM_CONE_POINTS


def test_fourey_classification_consistency():
    # Finite fractions are periodic slopes; check a small family end to end.
    for coeffs in ([0, 1], [1], [0, -1, 2], [2, 1]):
        d = fourey_direction(coeffs)
        assert classify_all(d).verdict == "periodic", coeffs
