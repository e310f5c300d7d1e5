#!/usr/bin/env python3
"""Continued fractions over multiples of four, witness words, recurrence.

Every finite fraction [4a0; 4a1, ..., 4an] is a periodic slope, and the
explicit word T A^{-a0} T A^{a1} T ... T certifies it: the word's matrix
carries the direction in its first column and its homology representation
image is upper unipotent.  Eventually periodic coefficient sequences are
classified by the recurrence trichotomy.  The coset table of the group
decides directions of any size, here one with 201 digits.
"""

from mucube import (
    ContinuedFraction,
    classify_group,
    classify_oracle,
    column_witness,
    convergents,
    eval_word,
    find_witness,
    fourey_direction,
    fourey_word,
    is_in_gamma,
    recurrence_classify,
    rho,
)

print("== finite fractions are periodic slopes ==")
for coeffs in ([0, 1], [1], [1, -2], [0, 2, 1]):
    cf = ContinuedFraction.fourey(coeffs)
    d = fourey_direction(coeffs)
    w = fourey_word(coeffs)
    print(f"coeffs {coeffs}: slope {cf.value()}, direction {d}, "
          f"verdict {classify_oracle(d).verdict}")
    print(f"   word {w}  column {eval_word(w)[0::2]}  in group: {is_in_gamma(w)}")

print()
print("== convergents of [4; 4, 4, 4, ...] ==")
cf = ContinuedFraction(4, (), (4,))
for n, (p, q) in enumerate(convergents(cf, 6)):
    print(f"   n={n}:  {p}/{q}")

print()
print("== witness search by breadth-first search ==")
for d in [(1, 0), (4, 1), (18, 13), (5, 2)]:
    w = find_witness(d, max_depth=10)
    if w is None:
        print(f"{d}: no witness within depth 10 (and indeed "
              f"{classify_oracle(d).verdict})")
    else:
        print(f"{d}: word {w}  rho {rho(w)}")

print()
print("== a direction with 201 digits, decided by the coset table ==")
d = (10**100, 10**200 + 1)
c = classify_group(d)
w = column_witness(*d)
m = eval_word(w)
print(f"(10^100, 10^200 + 1): {c.verdict}, rho {c.certificate['rho']}")
print(f"   shortest witness: {len(w.letters)} syllables, exponents of "
      f"{max(len(str(abs(e))) for _, e in w.letters)} digits, first column "
      f"+-(p, q): {(m[0], m[2]) in (d, (-d[0], -d[1]))}, in group: {is_in_gamma(w)}")

print()
print("== recurrence classes of eventually periodic sequences ==")
for prefix, period in ([(0, 4, 4), ()], [(0,), (2, 3)], [(0,), (1, -1)], [(0,), (-2, 2)]):
    cf = ContinuedFraction.fourey(list(prefix), list(period))
    print(f"   prefix {list(prefix)} period {list(period)}: {recurrence_classify(cf)}")
