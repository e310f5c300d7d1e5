"""Matrix group machinery behind the algebraic periodicity criterion.

The three generator matrices are

    T = [[0,-1],[1,0]],   A = [[1,4],[0,1]],   B = [[5,-8],[2,-3]],

written T here (Theta).  Words over {T, A, B} evaluate to SL(2,Z) matrices;
the homology representation sends T to the identity, A to [[1,1],[0,1]] and
B to [[3,-1],[4,-1]], all modulo global sign.  A word lies in the
periodicity group exactly when its image under the representation is upper
unipotent modulo sign, and a primitive direction (p, q) is periodic exactly
when some such word has first column +-(p, q).

That criterion is decided exactly by the coset table of H = <T, A, B> in
PSL(2, Z) = <S, U | S^2, (S U)^3>, with S = T and U = [[1,1],[0,1]].
Todd-Coxeter enumeration finds 9 cosets, and in its modified form records
the T/A/B word of each Schreier generator as it deduces the table's
entries.  Reidemeister-Schreier rewriting carries these words and their rho
images along any S/U word; both are checked against the relators and
against T, A and B (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005).
Euclid's path of (p, q) through the table either never reaches H's coset,
and then no word of H has that column, or gives one that does; all such
words differ by powers of A and a sign, so one rho image answers for all
of them.  The path turns each partial quotient of p / q into a run of
exponents -2, which the table walks as a power of the cycle of S U^-2
through the cosets; so the cost is O(1) table steps per partial quotient,
O(log(|p| + |q|)) in all, plus O(log n) products for a run of length n.
A whole box of columns is decided by one descent of the Stern-Brocot tree
through the coset table instead, at one table step per node, so O(1) per
column (``_witness_columns``, after Schmithuesen's Veech-group algorithm for
origamis, Experiment. Math. 2004).

The table's signature (one coset fixed by S, none by S U, three cusps) makes
H = Z/2 * Z * Z, free on T, A and B, so every element has exactly one
freely reduced word.  Rewriting with the Schreier generators' words in
place of their rho images therefore gives each column's shortest witness
word, and the breadth-first search that defines ``find_witness``'s answer
is never walked: it is a tree, and whether it reaches a word is a test of
that word's prefixes.

Continued fractions whose partial quotients are multiples of four live here
as well: convergents, the explicit witness words for their slopes, the
sharpened Hurwitz bound with rigorous rational tail enclosures, and the
recurrence trichotomy for eventually periodic coefficient sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import NamedTuple, Optional, Sequence

Mat2 = tuple[int, int, int, int]  # row-major (a, b, c, d)
Syllables = tuple[tuple[str, int], ...]  # a word as (letter, exponent) pairs

IDENTITY: Mat2 = (1, 0, 0, 1)
THETA: Mat2 = (0, -1, 1, 0)
A_MAT: Mat2 = (1, 4, 0, 1)
B_MAT: Mat2 = (5, -8, 2, -3)

RHO = {"T": IDENTITY, "A": (1, 1, 0, 1), "B": (3, -1, 4, -1)}
GENS = {"T": THETA, "A": A_MAT, "B": B_MAT}


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(m: Mat2) -> Mat2:
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("only determinant-one matrices are invertible here")
    return (d, -b, -c, a)


def mat_pow(m: Mat2, n: int) -> Mat2:
    if n < 0:
        m, n = mat_inv(m), -n
    out = None
    while n:
        if n & 1:
            out = m if out is None else mat_mul(out, m)
        n >>= 1
        if n:
            m = mat_mul(m, m)
    return IDENTITY if out is None else out


def mat_neg(m: Mat2) -> Mat2:
    a, b, c, d = m
    return (-a, -b, -c, -d)


def proj_canonical(m: Mat2) -> Mat2:
    """Representative of {m, -m} with positive first nonzero entry."""
    for v in m:
        if v > 0:
            return m
        if v < 0:
            return mat_neg(m)
    raise ValueError("zero matrix")


def proj_equal(m: Mat2, n: Mat2) -> bool:
    return m == n or m == mat_neg(n)


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word over {T, A, B} with integer exponents."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        for letter, exp in self.letters:
            if letter not in GENS:
                raise ValueError(f"unknown letter {letter!r}")
            if exp == 0:
                raise ValueError("zero exponents are not reduced")
        for (l1, _), (l2, _) in zip(self.letters, self.letters[1:]):
            if l1 == l2:
                raise ValueError("adjacent equal letters are not reduced")

    @classmethod
    def of(cls, *parts: tuple[str, int]) -> "GroupWord":
        return cls(_reduce(parts))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(_reduce(self.letters + other.letters))

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((l, -e) for l, e in reversed(self.letters)))

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        out = []
        for letter, exp in self.letters:
            out.append(letter if exp == 1 else f"{letter}^{exp}")
        return " ".join(out)

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        text = text.strip()
        if text in ("", "e", "1"):
            return cls()
        parts = []
        for tok in text.split():
            if "^" in tok:
                letter, exp = tok.split("^")
                parts.append((letter, int(exp)))
            else:
                parts.append((tok, 1))
        return cls(_reduce(parts))


def _reduce(parts: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for letter, exp in parts:
        if exp == 0:
            continue
        if out and out[-1][0] == letter:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((letter, merged))
        else:
            out.append((letter, exp))
    return tuple(out)


def eval_word(w: GroupWord) -> Mat2:
    m = IDENTITY
    for letter, exp in w.letters:
        m = mat_mul(m, mat_pow(GENS[letter], exp))
    return m


def rho(w: GroupWord) -> Mat2:
    """Homology representation of a word, reduced modulo global sign."""
    m = IDENTITY
    for letter, exp in w.letters:
        m = mat_mul(m, mat_pow(RHO[letter], exp))
    return proj_canonical(m)


def is_upper_unipotent(m: Mat2) -> bool:
    a, b, c, d = m
    return c == 0 and abs(a) == 1 and a == d


def is_in_gamma(w: GroupWord) -> bool:
    """Membership in the periodicity group: the representation image must be
    upper unipotent modulo sign."""
    return is_upper_unipotent(rho(w))


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

# ``find_witness`` and ``witness_table`` answer as a breadth-first walk over
# words would.  It starts at the empty word and extends every word of the
# last level on the right by these letters, in this order.  A new word is
# kept only if its matrix, modulo sign, is new and passes the step's cap test
# (see ``_reachable``).  The order fixes which word of a column is found
# first.  T^-1 never reaches a new word: M T^-1 = -(M T), which the T step
# has already tried.
_BFS_LETTERS: tuple[tuple[str, int], ...] = (
    ("A", 1), ("A", -1), ("T", 1), ("T", -1), ("B", 1), ("B", -1),
)


# ---------------------------------------------------------------------------
# Coset table of H = <T, A, B> in PSL(2, Z)
# ---------------------------------------------------------------------------

U_MAT: Mat2 = (1, 1, 0, 1)


class CosetTableError(RuntimeError):
    """The coset table of H failed a check that proves rho well defined."""


# PSL(2, Z) = <S, U | S^2, (S U)^3> with S = T.  A word in S and U is the list
# of U-exponents (e0, e1, ..., en) of U^e0 S U^e1 S ... S U^en, so the two
# relators are (0, 0, 0) and (0, 1, 1, 1).  After the first exponent, an item
# (-2, n) stands for n exponents -2 in a row, that is for V^n with V = S U^-2
# (see ``_euclid``).  Coset table columns are S (an involution), U and U^-1.
_V_MAT: Mat2 = (0, -1, 1, -2)  # S U^-2
_S, _U, _UI = 0, 1, 2
_INV = (0, 2, 1)
_RELATORS = ((0, 0, 0), (0, 1, 1, 1))


def _euclid(p: int, q: int) -> list:
    """Euclid's path of (p, q): exponents (k1, ..., kn) with
    U^k1 S U^k2 S ... U^kn S e1 = +-(p, q), each k the floor of p / q.

    A regular partial quotient a turns into a run of about a exponents -2,
    so after the first exponent every run of n > 1 of them is written as one
    item (-2, n), which stands for (S U^-2)^n.  Inside a run, with
    s = p + q at its start, p_i + q_i = (-1)^i s and (-1)^i q_i moves by s
    at every step; the run lasts while -q_i / ((-1)^i s) >= 1, so it has
    n = -q // s steps and ends at (-(q + (n-1) s), q + n s) up to a sign,
    which leaves the rest of the path unchanged.  Every other exponent
    shrinks the pair geometrically, so the path has O(log(|p| + |q|)) items.
    """
    ks: list = []
    while q:
        k = p // q
        if k == -2 and ks:
            s = p + q
            n = -q // s
            if n > 1:
                ks.append((-2, n))
                p, q = -q - (n - 1) * s, q + n * s
                continue
        ks.append(k)
        p, q = q, k * q - p
    return ks


def _su_matrix(path) -> Mat2:
    m = IDENTITY
    for i, e in enumerate(path):
        if type(e) is tuple:
            m = mat_mul(m, mat_pow(_V_MAT, e[1]))
            continue
        if i:
            m = mat_mul(m, THETA)
        m = mat_mul(m, mat_pow(U_MAT, e))
    return m


def _su_exponents(m: Mat2) -> list[int]:
    """An S/U word for m up to sign: Euclid on the first column, then the
    power of U left over, which fixes e1."""
    exps = _euclid(m[0], m[2]) + [0]
    a, b, _, _ = mat_mul(mat_inv(_su_matrix(exps)), m)  # +-[[1, j], [0, 1]]
    exps[-1] = a * b
    return exps


def _enumerate_cosets(subgroup) -> tuple[list[list[int]], list[list[Syllables]]]:
    """Todd-Coxeter enumeration (HLT) of the right cosets of the subgroup
    generated by ``subgroup``, pairs of a generator's letter and its S/U
    word; coset 0 is the subgroup itself.  Returns the coset table, whose
    rows give the images of each coset under S, U and U^-1, and the word of
    every entry over the generators' letters (modified Todd-Coxeter).

    Every coset d is defined as the image c x of one already known, and an
    entry is filled in only when a relator or a subgroup generator forces
    it, so a complete table is the coset action.  Two names for one coset (a
    coincidence) would need merging; no enumeration here meets one, so it
    raises CosetTableError instead, as does passing 1000 cosets.

    The representatives follow the definitions: t_0 = 1 and t_d = t_c x.
    The word of an entry c x = d is the freely reduced W with t_c x = W t_d,
    so it is empty for the two entries of a definition.  A scan of a word
    x_0 ... x_n-1 from coset c reads t_c x_0 ... x_n-1 = h t_c, with h the
    generator's letter for a generator scanned at coset 0 and empty for a
    relator.  The forward scan's entry words multiply to P, with
    t_c x_0 ... x_i-1 = P t_f; the backward scan, stepping from b by x_j^-1
    with entry word V, prepends V^-1 to Q, so that t_b x_i+1 ... x_n-1 =
    Q t_c.  So the entry f x_i = b deduced at position i has the word
    W = P^-1 h Q^-1, and its inverse entry W^-1.  All words go through
    ``_extend``, so T's exponent counts mod 2.
    """
    table: list[list] = [[None, None, None]]
    words: list[list] = [[None, None, None]]

    def define(c, x):
        if len(table) >= 1000:
            raise CosetTableError("coset enumeration passed 1000 cosets")
        table[c][x], words[c][x] = len(table), ()
        table.append([None, None, None])
        words.append([None, None, None])
        table[-1][_INV[x]], words[-1][_INV[x]] = c, ()

    def scan_and_fill(c, word, h=()):
        f, b, i, j = c, c, 0, len(word) - 1
        p: list[tuple[str, int]] = []  # P, the forward scan's entry words
        q: list[tuple[str, int]] = []  # Q^-1, the backward scan's, in scan order
        while True:
            while i <= j and table[f][word[i]] is not None:
                _extend(p, words[f][word[i]])
                f, i = table[f][word[i]], i + 1
            while j >= i and table[b][_INV[word[j]]] is not None:
                _extend(q, words[b][_INV[word[j]]])
                b, j = table[b][_INV[word[j]]], j - 1
            if j < i:
                if f != b:
                    raise CosetTableError(f"cosets {f} and {b} coincide")
                return
            if i == j:
                w = _word_inv(p)
                _extend(w, h)
                _extend(w, q)
                table[f][word[i]], table[b][_INV[word[i]]] = b, f
                # An S entry fixing its coset is its own inverse entry; W is
                # then an involution, and the entry keeps W.
                words[b][_INV[word[i]]], words[f][word[i]] = tuple(_word_inv(w)), tuple(w)
                return
            define(f, word[i])

    def columns(exps):
        word = []
        for i, e in enumerate(exps):
            word += [_S] * (i > 0) + [_U if e > 0 else _UI] * abs(e)
        return word

    for letter, exps in subgroup:
        scan_and_fill(0, columns(exps), ((letter, 1),))
    for c, row in enumerate(table):
        for relator in _RELATORS:
            scan_and_fill(c, columns(relator))
        for x in range(3):
            if row[x] is None:
                define(c, x)
    return table, words


class _Coset(NamedTuple):
    """One coset c of H, with rho and the T/A/B words of the Schreier
    generators t_c X t_{cX}^-1 that the walk from it passes (t the
    representatives of ``_enumerate_cosets``, whose entry words these are)."""

    s_image: int  # c S
    s_rho: Mat2
    s_word: Syllables
    u_orbit: tuple[int, ...]  # c U^j for j below the length of c's U-cycle
    u_rho: tuple[Mat2, ...]  # rho of t_c U^j t_{cU^j}^-1 for j up to the length
    u_words: tuple[Syllables, ...]  # the T/A/B words of the same elements
    v_orbit: tuple[int, ...] = ()  # the same three for V = S U^-2
    v_rho: tuple[Mat2, ...] = ()
    v_words: tuple[Syllables, ...] = ()


def _rewrite(cosets, c: int, path) -> tuple[int, Mat2]:
    """The coset reached by the S/U word ``path`` from coset c, and the
    product of rho over the Schreier generators it passes (Reidemeister-
    Schreier rewriting).  U^e goes e mod L round c's U-cycle of length L and
    raises the cycle's loop to the power e div L; a run V^n does the same on
    c's V-cycle.  So an item costs O(log |e|) or O(log n) products."""
    r = IDENTITY
    for i, e in enumerate(path):
        row = cosets[c]
        if type(e) is tuple:
            orbit, prefix, e = row.v_orbit, row.v_rho, e[1]
        else:
            if i:
                r = mat_mul(r, row.s_rho)
                row = cosets[row.s_image]
            orbit, prefix = row.u_orbit, row.u_rho
        loops, j = divmod(e, len(orbit))
        if loops:
            r = mat_mul(r, mat_pow(prefix[-1], loops))
        c, r = orbit[j], mat_mul(r, prefix[j])
    return c, r


def _rewrite_word(cosets, c: int, path) -> tuple[int, list[tuple[str, int]]]:
    """``_rewrite`` with the T/A/B words of the Schreier generators in place
    of their rho images: the coset reached and the freely reduced word of
    the product."""
    w: list[tuple[str, int]] = []
    for i, e in enumerate(path):
        row = cosets[c]
        if type(e) is tuple:
            orbit, prefix, e = row.v_orbit, row.v_words, e[1]
        else:
            if i:
                _extend(w, row.s_word)
                row = cosets[row.s_image]
            orbit, prefix = row.u_orbit, row.u_words
        loops, j = divmod(e, len(orbit))
        if loops:
            _extend(w, _word_pow(prefix[-1], loops))
        c = orbit[j]
        _extend(w, prefix[j])
    return c, w


def _extend(out: list[tuple[str, int]], word: Sequence[tuple[str, int]]) -> None:
    """Multiply the freely reduced word ``out`` on the right by ``word``, in
    place: equal letters merge, T's exponent counts mod 2 (T^2 = -I), and
    zero exponents drop out."""
    for letter, exp in word:
        if out and out[-1][0] == letter:
            exp += out.pop()[1]
        if letter == "T":
            exp %= 2
        if exp:
            out.append((letter, exp))


def _word_inv(word: Sequence[tuple[str, int]]) -> list[tuple[str, int]]:
    """The freely reduced word of the inverse of ``word``."""
    out: list[tuple[str, int]] = []
    _extend(out, [(letter, -e) for letter, e in reversed(word)])
    return out


def _word_pow(word: Syllables, n: int) -> list[tuple[str, int]]:
    """The freely reduced word of word^n, by repeated squaring."""
    out: list[tuple[str, int]] = []
    base = _word_inv(word) if n < 0 else list(word)
    n = abs(n)
    while n:
        if n & 1:
            _extend(out, base)
        n >>= 1
        if n:
            _extend(base, list(base))
    return out


def _signature(table) -> tuple[int, int, int, int]:
    """(index, e2, e3, cusps) of the subgroup with coset table ``table``:
    the cosets fixed by S, those fixed by S U, and the U-cycles."""
    e2 = sum(row[_S] == c for c, row in enumerate(table))
    e3 = sum(table[row[_S]][_U] == c for c, row in enumerate(table))
    cusps, seen = 0, set()
    for c in range(len(table)):
        cusps += c not in seen
        while c not in seen:
            seen.add(c)
            c = table[c][_U]
    return len(table), e2, e3, cusps


def _cycle(c: int, step):
    """The cycle of coset c under a permutation X given by ``step(d)`` =
    (d X, rho of t_d X t_{dX}^-1, its T/A/B word): the cosets c X^j for j
    below the cycle's length L, and the products of rho and of the words
    over the first j steps, for j up to L."""
    orbit, prefix, prefix_word = [c], [IDENTITY], [()]
    while True:
        d, r, word = step(orbit[-1])
        prefix.append(mat_mul(prefix[-1], r))
        w = list(prefix_word[-1])
        _extend(w, word)
        prefix_word.append(tuple(w))
        if d == c:
            return tuple(orbit), tuple(prefix), tuple(prefix_word)
        orbit.append(d)


# The signature of H.  Its genus is 1 + 9/12 - 1/4 - 0/3 - 3/2 = 0, so
# H = Z/2 * Z * Z (Kulkarni, Amer. J. Math. 113, 1991).  T, A and B generate
# H, and finitely generated residually finite groups are Hopfian, so they
# are a free basis: every element of H has exactly one freely reduced word.
_H_SIGNATURE = (9, 1, 0, 3)


@cache
def _coset_table() -> tuple[_Coset, ...]:
    """The cosets of H = <T, A, B> in PSL(2, Z), H's coset first, with rho
    and the T/A/B words of the Schreier generators, and the cycles of U and
    of V = S U^-2 through each coset with their prefix products; built on
    first use.

    The table must have H's signature ``_H_SIGNATURE``.  The words are those
    that the enumeration records for its S and U entries, and give the rho
    images.  Two checks then prove the words and rho right (rho modulo
    sign): every relator, rewritten from every coset, maps to +-I and to the
    empty word, and T, A and B, rewritten from H's coset, map to their
    images in ``RHO`` and to the words T, A and B.  By Reidemeister-Schreier
    the relators' words make the words a homomorphism from H to the free
    product Z/2 * Z * Z on T, A, B, and the generators' words make it
    inverse to evaluation, so every word evaluates to its Schreier
    generator.  Any check failing raises CosetTableError.
    """
    words = {name: _su_exponents(m) for name, m in GENS.items()}
    table, entry_words = _enumerate_cosets(words.items())
    if _signature(table) != _H_SIGNATURE:
        raise CosetTableError(f"signature {_signature(table)}, not {_H_SIGNATURE}")

    def step(c, x):
        word = entry_words[c][x]
        return table[c][x], rho(GroupWord(word)), word

    cosets = [_Coset(*step(c, _S), *_cycle(c, lambda d: step(d, _U)))
              for c in range(len(table))]

    def v_step(c):
        d, r = _rewrite(cosets, c, (0, -2))
        return d, r, tuple(_rewrite_word(cosets, c, (0, -2))[1])

    v_cycles = [_cycle(c, v_step) for c in range(len(cosets))]
    cosets = [row._replace(v_orbit=o, v_rho=r, v_words=w)
              for row, (o, r, w) in zip(cosets, v_cycles)]
    for c in range(len(cosets)):
        for relator in _RELATORS:
            d, r = _rewrite(cosets, c, relator)
            e, w = _rewrite_word(cosets, c, relator)
            if d != c or e != c or w or not proj_equal(r, IDENTITY):
                raise CosetTableError(f"relator {relator} from coset {c} maps to {r}, {w}")
    for name, exps in words.items():
        d, r = _rewrite(cosets, 0, exps)
        if d != 0 or not proj_equal(r, RHO[name]):
            raise CosetTableError(f"{name} rewrites to {r}, not {RHO[name]}")
        d, w = _rewrite_word(cosets, 0, exps)
        if (d, w) != (0, [(name, 1)]):
            raise CosetTableError(f"{name} rewrites to the word {w} at coset {d}")
    return tuple(cosets)


def column_rho(p: int, q: int) -> Optional[Mat2]:
    """rho, modulo sign, of an element of H with first column +-(p, q), or
    None when H has no such element.

    Euclid writes (p, q) = G e1; the walk of G through the coset table, then
    of U until it reaches H's coset, gives h = G U^j in H.  Any other element
    of H with that column differs from h by a power of A (H's coset has a
    U-cycle of length 4) and a sign, and rho(A) is upper unipotent.  The
    cost is O(1) table steps per partial quotient of p / q (``_euclid``
    compresses its runs), plus O(log n) products for a run of length n.
    """
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    return _path_rho(_euclid(p, q) + [0])


def _path_rho(path) -> Optional[Mat2]:
    """``column_rho`` along a given Euclid path, closed by a last U^0."""
    cosets = _coset_table()
    c, r = _rewrite(cosets, 0, path)
    orbit = cosets[c].u_orbit
    if 0 not in orbit:
        return None
    return proj_canonical(mat_mul(r, cosets[c].u_rho[orbit.index(0)]))


def column_has_witness(p: int, q: int) -> bool:
    """Whether some word over T, A, B with first column +-(p, q) has an upper
    unipotent rho image: if one has, every such word has."""
    r = column_rho(p, q)
    return r is not None and is_upper_unipotent(r)


def _column_word(p: int, q: int) -> GroupWord:
    """The shortest T/A/B word with first column +-(p, q), for a column that
    some element of H has.

    ``column_rho``'s walk through the coset table, with words in place of rho
    images, gives the reduced word of h = G U^j.  Every element of H with
    that column is +-h A^k, and H is free on T, A, B, so h without its
    trailing power of A is the shortest word with the column, and a prefix of
    every other one.
    """
    return _path_word(_euclid(p, q) + [0])


def _path_word(path) -> GroupWord:
    """``_column_word`` along a given Euclid path, closed by a last U^0."""
    cosets = _coset_table()
    c, w = _rewrite_word(cosets, 0, path)
    orbit = cosets[c].u_orbit
    _extend(w, cosets[c].u_words[orbit.index(0)])
    if w and w[-1][0] == "A":
        w.pop()
    return GroupWord(tuple(w))


def _column_rho_and_word(p: int, q: int) -> tuple[Optional[Mat2], Optional[GroupWord]]:
    """``column_rho(p, q)`` and, when it is upper unipotent, the unchecked
    ``_column_word(p, q)``, from one Euclid path of a primitive (p, q)."""
    path = _euclid(p, q) + [0]
    r = _path_rho(path)
    if r is None or not is_upper_unipotent(r):
        return r, None
    return r, _path_word(path)


def column_witness(p: int, q: int) -> Optional[GroupWord]:
    """The shortest witness word with first column +-(p, q), or None when
    (p, q) has no witness; found by rewriting through the coset table, with
    no bound on depth or entries.  The rho walk and the word walk share one
    Euclid path."""
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    word = _column_rho_and_word(p, q)[1]
    return None if word is None else _checked(word)


# The index in ``_BFS_LETTERS`` of each one-letter step.
_STEP_INDEX = {letter: i for i, letter in enumerate(_BFS_LETTERS)}


def _reachable(word: GroupWord, max_depth: int, cap: int) -> bool:
    """Whether the walk of ``find_witness``'s contract (``_BFS_LETTERS``),
    with ``max_depth`` levels and entry cap ``cap``, reaches ``word``.

    The walk's cap test on a step's new matrix is this: after A or B, the
    new second column must lie within the cap; after T, nothing is tested.
    That is every entry within the cap once cap >= 1 (see the B step below).
    H is free on T, A, B, so the walk is a tree of reduced words: it reaches
    a word iff the word has at most ``max_depth`` letters and every
    one-letter prefix passes the cap test.  The empty word is always reached.
    """
    if not word.letters:
        return True
    if sum(abs(e) for _, e in word.letters) > max_depth:
        return False
    a, b, c, d = IDENTITY
    for letter, e in word.letters:
        if letter == "T":
            # T^e = +-T^(e mod 2), and the cap tests ignore the sign.
            if e % 2:
                a, b, c, d = b, -a, d, -c
            continue
        w, x, y, z = GENS[letter] if e > 0 else mat_inv(GENS[letter])
        for _ in range(abs(e)):
            # Only the second column can leave the cap.  m A keeps m's first
            # column.  m B has a' = (b - 5 b') / 8 and m B^-1 has
            # a' = -(3 b' + b) / 8 (likewise c' from d and d'), so once b'
            # passes, |a'| <= 3/4 cap, since |b| <= cap by induction from the
            # identity when cap >= 1.  When cap < 1, no A or B step passes:
            # b' = d' = 0 would give the new matrix determinant 0.
            a, b, c, d = a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z
            if not (-cap <= b <= cap and -cap <= d <= cap):
                return False
    return True


def _walk_order(word: GroupWord) -> tuple[int, tuple[int, ...]]:
    """Sort key of the walk's order, which is shortlex on letter indices."""
    steps = tuple(_STEP_INDEX[letter, 1 if e > 0 else -1]
                  for letter, e in word.letters for _ in range(abs(e)))
    return len(steps), steps


def find_witness(d, max_depth: int = 14, entry_cap: Optional[int] = None) -> Optional[GroupWord]:
    """The witness word for (p, q) that a breadth-first search over words of
    at most ``max_depth`` letters, with entries bounded by ``entry_cap``,
    finds first; the cap defaults to 16 * max(|p|, |q|).  Returns None when
    that search finds none.

    ``column_has_witness`` decides first, for every depth and cap, whether
    any word with that column is a witness, and then every such word is one.
    So a None there proves that (p, q) has no witness: this holds for every
    drift direction.  For odd/odd ones it holds before the coset table is
    built, by parity: mod 2, A and B are the identity and T swaps the basis
    vectors, so no word over T, A, B has an odd/odd first column.
    Otherwise the search's first word is the shortest one,
    ``column_witness``'s, if the search reaches it at all (``_reachable``),
    and nothing is walked; a None then only means that the witness lies
    beyond the depth or the cap.  The cost is one Euclid path walked
    through the coset table with rho images and, for a periodic column, with
    words: that builds the whole witness before testing its length, and it
    has 2n + 1 letters on the path [0, (-2, n), -3, -(n + 1)], n = 3k + 2.
    """
    p, q = d
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    if p % 2 and q % 2:
        return None
    word = _column_rho_and_word(p, q)[1]
    if word is None:
        return None
    cap = entry_cap if entry_cap is not None else 16 * max(abs(p), abs(q), 1)
    return _checked(word) if _reachable(word, max_depth, cap) else None


@cache
def _descent_steps():
    """The steps of ``_witness_columns``' descent, built on first use from
    ``_coset_table()``.

    Per coset c: the coset and rho of one L step (S U^-1 S = -L) and of one
    R step (U) from c, and (w0, w1), the first column of rho(L step) times
    rho of the U steps from the L step's coset to H's coset, or None when
    that coset's U-cycle misses H's.  Then the start of the walk for p > 0 > q:
    S's coset and the bottom row of rho(S) from H's coset.
    """
    cosets = _coset_table()
    steps = []
    for c in range(len(cosets)):
        g, gl = _rewrite(cosets, c, (0, -1, 0))
        k, kr = _rewrite(cosets, c, (1,))
        orbit = cosets[g].u_orbit
        w = None
        if 0 in orbit:
            m = mat_mul(gl, cosets[g].u_rho[orbit.index(0)])
            w = (m[0], m[2])
        steps.append((g, *gl, k, *kr, w))
    s, sr = _rewrite(cosets, 0, (0, 0))
    return tuple(steps), (s, sr[2], sr[3])


def _witness_columns(max_norm: int):
    """Every sign-normalized column (p, q) with max(|p|, |q|) <= max_norm
    that has a witness, each once, decided in O(1) table steps per column.

    The Stern-Brocot tree of L = [[1,0],[1,1]] and R = U enumerates every
    matrix M of SL(2, Z) with entries >= 0 once; node M stands for the
    column M (1, 1), the first column of G = M L.  A node stands for its
    coset and the rho product r of its walk from H's coset (``_rewrite``),
    so its L child's state is that of G, one L step on, and U steps from
    there to H's coset give an h in H with first column (p, q).  It differs
    from the h of Euclid's path by +-A^k, and rho(A) is upper unipotent, so the
    verdict is ``column_has_witness``'s (see ``column_rho``).  Columns only
    grow down the tree, so a child beyond the bound is pruned with its
    subtree.  The walk from H's coset gives the columns with p, q > 0, the
    walk from S's coset (G = S M L) those with p > 0 > q; (1, 0) and (0, 1)
    are the identity's and T's.

    Only the bottom row (rc, rd) of r is carried.  Every rho image here has
    determinant 1 (rho(T), rho(A) and rho(B) do, and so do their products,
    inverses and negatives), so such a product is upper unipotent up to
    sign exactly when its lower-left entry is 0: with c = 0, a d = 1 forces
    a = d = +-1.  The verdict reads the lower-left entry of r gl tail, with
    gl the L step's rho and tail that of the U steps to H's coset, which is
    (rc, rd) times the first column (w0, w1) of gl tail; that column
    depends on the coset alone (``_descent_steps``).  A child's bottom row
    is (rc, rd) times its step's rho.  So a node costs one 2-term dot
    product for the verdict and two per child, with no matrix built.
    """
    if max_norm < 1:
        return
    yield (1, 0)
    yield (0, 1)
    steps, s_start = _descent_steps()
    for flip, start in ((False, (0, 0, 1)), (True, s_start)):
        # (a, c) and (b, d) are the columns of M; the node's column is their sum.
        stack = [(1, 0, 0, 1, *start)]
        pop, push = stack.pop, stack.append
        while stack:
            a, c, b, d, coset, rc, rd = pop()
            g, la, lb, lc, ld, k, ka, kb, kc, kd, w = steps[coset]
            x, y = a + b, c + d
            if w is not None and rc * w[0] + rd * w[1] == 0:
                yield (y, -x) if flip else (x, y)
            if x + b <= max_norm and y + d <= max_norm:
                push((x, y, b, d, g, rc * la + rd * lc, rc * lb + rd * ld))
            if a + x <= max_norm and c + y <= max_norm:
                push((a, c, x, y, k, rc * ka + rd * kc, rc * kb + rd * kd))


def witness_table(max_norm: int, max_depth: int, entry_cap: Optional[int] = None):
    """``find_witness`` for every column with max(|p|, |q|) bounded, all
    with one cap (default 16 * max_norm).

    Returns a dict mapping the sign-normalized first column (p, q) of every
    witness word that the breadth-first search reaches to the shortest such
    word, in the order in which the search reaches them.  The columns within
    the bound that have a witness come from one Stern-Brocot descent through
    the coset table (``_witness_columns``), at one table step per node, and
    a word is built only for them.
    """
    cap = entry_cap if entry_cap is not None else 16 * max_norm
    found = []
    for p, q in _witness_columns(max_norm):
        word = _column_word(p, q)
        if _reachable(word, max_depth, cap):
            found.append((_walk_order(word), (p, q), word))
    found.sort()
    return {col: _checked(word) for _, col, word in found}


def _checked(word: GroupWord) -> GroupWord:
    if not is_in_gamma(word):
        raise CosetTableError(f"{word} is no witness, against the coset table")
    return word


# ---------------------------------------------------------------------------
# Continued fractions with partial quotients in 4Z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuedFraction:
    """[a0; a1, a2, ...] with an optional eventually repeating block.

    ``quotients(n)`` yields the first n+1 partial quotients; for a finite
    fraction the period is empty.
    """

    a0: int
    tail: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        if any(v == 0 for v in self.tail) or any(v == 0 for v in self.period):
            raise ValueError("partial quotients beyond a0 must be nonzero")

    @classmethod
    def fourey(cls, coeffs: Sequence[int], period: Sequence[int] = ()) -> "ContinuedFraction":
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a0 is required")
        return cls(4 * coeffs[0], tuple(4 * c for c in coeffs[1:]),
                   tuple(4 * c for c in period))

    @property
    def finite(self) -> bool:
        return not self.period

    def quotients(self, n: int) -> list[int]:
        out = [self.a0] + list(self.tail)
        while len(out) <= n:
            if not self.period:
                break
            need = n + 1 - len(out)
            out.extend(self.period[:need])
        return out[: n + 1]

    def depth(self) -> int:
        if not self.finite:
            raise ValueError("infinite continued fraction")
        return len(self.tail)

    def value(self) -> Fraction:
        if not self.finite:
            raise ValueError("infinite continued fraction")
        *head, last = self.quotients(self.depth())
        val = Fraction(last)
        for a in reversed(head):
            val = a + 1 / val
        return val

    def fourey_coefficients(self) -> tuple[list[int], list[int]]:
        """The (prefix, period) with the factor four divided out."""
        for v in (self.a0, *self.tail, *self.period):
            if v % 4:
                raise ValueError("not a continued fraction over multiples of four")
        return (
            [self.a0 // 4] + [v // 4 for v in self.tail],
            [v // 4 for v in self.period],
        )


def convergents(cf: ContinuedFraction, depth: int) -> list[tuple[int, int]]:
    """(p_n, q_n) for n = 0..depth, checking the alternating identity
    p_{n-1} q_n - p_n q_{n-1} = (-1)^n at every step."""
    qs = cf.quotients(depth)
    if len(qs) <= depth and cf.finite:
        raise ValueError("depth exceeds the available partial quotients")
    p_prev, q_prev = 1, 0
    p_cur, q_cur = qs[0], 1
    out = [(p_cur, q_cur)]
    for n in range(1, len(qs)):
        a = qs[n]
        p_nxt = a * p_cur + p_prev
        q_nxt = a * q_cur + q_prev
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
        if p_prev * q_cur - p_cur * q_prev != (-1) ** n:
            raise ArithmeticError("convergent identity failed")
        out.append((p_cur, q_cur))
    return out


def fourey_word(coeffs: Sequence[int]) -> GroupWord:
    """The explicit witness word for the slope [4a0; 4a1, ..., 4an].

    Its matrix has the slope's denominator and numerator as first column up
    to sign, and its representation image is upper unipotent.
    """
    coeffs = list(coeffs)
    if any(c == 0 for c in coeffs[1:]):
        raise ValueError("coefficients beyond the first must be nonzero")
    parts: list[tuple[str, int]] = [("T", 1)]
    for i, a in enumerate(coeffs):
        exp = -a if i % 2 == 0 else a
        parts.append(("A", exp))
        parts.append(("T", 1))
    return GroupWord(_reduce(parts))


def fourey_direction(coeffs: Sequence[int]) -> tuple[int, int]:
    """The primitive direction whose slope is the given finite fraction."""
    cf = ContinuedFraction.fourey(coeffs)
    value = cf.value()
    return (value.denominator, value.numerator)


# ---------------------------------------------------------------------------
# Sharpened Hurwitz bound with rigorous tail enclosures
# ---------------------------------------------------------------------------

def _cf_interval(quotients: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Rational enclosure of [0; c1, c2, ...] given finitely many quotients
    |c_i| >= 4; the unknown tail contributes an interval within [-1/3, 1/3]."""
    lo, hi = Fraction(-1, 3), Fraction(1, 3)
    for c in reversed(quotients):
        d_lo, d_hi = c + lo, c + hi
        if d_lo <= 0 <= d_hi:
            raise ArithmeticError("tail interval crossed zero")
        lo, hi = sorted((1 / d_lo, 1 / d_hi))
    return lo, hi


def hurwitz_check(coeffs: Sequence[int], k: int, depth: int) -> bool:
    """Verify |q_n xi - p_n| < 1 / (2 sqrt(4k^2-1) |q_n|) for all n <= depth.

    ``coeffs`` are the a_i of xi = [0; 4a_1, 4a_2, ...] with |a_i| >= k; at
    least depth + 40 of them must be supplied so the tail enclosure of xi is
    tight.  Entirely rational arithmetic: the bound is squared and compared
    exactly against the enclosure's worst case.
    """
    coeffs = list(coeffs)
    if k < 1:
        raise ValueError("k must be at least 1")
    if any(abs(a) < k or a == 0 for a in coeffs):
        raise ValueError("all coefficients must satisfy |a_i| >= k >= 1")
    if len(coeffs) < depth + 40:
        raise ValueError("need at least depth + 40 coefficients for the tail")

    quotients = [4 * a for a in coeffs]
    lo, hi = _cf_interval(quotients)

    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1  # [0; ...]
    bound_factor = 4 * (4 * k * k - 1)  # (2 sqrt(4k^2-1))^2
    for n in range(1, depth + 1):
        a = quotients[n - 1]
        p_prev, q_prev, p_cur, q_cur = (
            p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev,
        )
        err_lo = q_cur * lo - p_cur
        err_hi = q_cur * hi - p_cur
        worst = max(abs(err_lo), abs(err_hi))
        if worst * worst * bound_factor * q_cur * q_cur >= 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Recurrence classification for eventually periodic coefficient sequences
# ---------------------------------------------------------------------------

PERIODIC_SLOPE = "periodic_slope"
RECURRENT_FROM_CONE_POINTS = "recurrent_from_cone_points"
RECURRENT_ALL = "recurrent_all"
INCONCLUSIVE = "inconclusive"


def recurrence_classify(cf: ContinuedFraction) -> str:
    """Classify the slope of a fraction over multiples of four.

    Finite fractions are periodic slopes.  For an eventually periodic
    sequence (a_n): if liminf a_n > 0 and limsup a_n > 1, or liminf |a_n| > 1
    and lim a_n a_{n+1} != -4, every trajectory of that slope is recurrent;
    otherwise if lim a_n a_{n+1} != -1 the trajectories from cone points are
    recurrent; otherwise nothing is concluded here.
    """
    if cf.finite:
        return PERIODIC_SLOPE
    cycle = cf.fourey_coefficients()[1]
    # Consecutive products over the eventual cycle, including the wrap.
    products = [cycle[i] * cycle[(i + 1) % len(cycle)] for i in range(len(cycle))]
    lim_inf = min(cycle)
    lim_sup = max(cycle)
    lim_inf_abs = min(abs(v) for v in cycle)

    def lim_products_is(value: int) -> bool:
        return all(pr == value for pr in products)

    if (lim_inf > 0 and lim_sup > 1) or (lim_inf_abs > 1 and not lim_products_is(-4)):
        return RECURRENT_ALL
    if not lim_products_is(-1):
        return RECURRENT_FROM_CONE_POINTS
    return INCONCLUSIVE
