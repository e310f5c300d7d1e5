"""Seeded inputs, operations and correctness checks of the four workloads.

A workload is a seeded list of operations, one pass; runs repeat the pass.  ``run`` performs one operation
through the public functions of ``mucube`` and is the only code that is
timed; ``check`` judges its result afterwards and returns the number of
checks made and the failures found.  Every library function is looked up on
its module at call time, so the span wrappers of a traced run see the call.

Why these workloads (see README.md for the metrics each one moves):

* ``scan``: the CLI batch job; almost all of its time is the 3D oracle on
  many short orbits, and it never touches the quotients or the group side.
* ``agree``: the paper's three-method cross-check on all short directions;
  most of its time is the 4-square quotient (cylinders, crossing counts).
* ``deep``: the same cross-check on long orbits, where per-crossing cost and
  memory dominate and an O(log) decider would differ from a tracer.
* ``witness``: the only workload that reaches the witness search.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Iterator, Optional

from mucube import classify, cli, grouptheory

from bench.rowcheck import row_error

SCAN_MAX = 80
SCAN_CHECKED_ROWS = 40
AGREE_MAX = 40
# |p| + |q| buckets of the deep workload's periodic directions.  A block
# holds one periodic and one drifting direction per bucket, so passes of
# different seeds do about the same work; seven blocks give the 40 latency
# samples a p75 tail needs.  Drifting directions are drawn DRIFT_SCALE times
# longer: a drifting direction costs about a third of a periodic one of the
# same size, so both halves cost about the same and the per-direction
# latencies stay within a factor of two.
DEEP_EDGES = (1000, 1260, 1587, 2000)
DRIFT_SCALE = 3
DEEP_BLOCKS = 7
WITNESS_MAX = 14
WITNESS_DEPTH = 12
TABLE_ARGS = (30, 12, 480)

# The family of criterion 6: [4a0; 4a1, ..., 4an] with n <= 3, |ai| <= 3.
FOUREY_DEPTH = 3
FOUREY_BOUND = 3


@dataclass
class Op:
    kind: str  # classify | find | table | scan
    arg: object
    # Known in advance: "drift", or (coeffs, direction) of a finite
    # four-multiple fraction whose slope is this direction's, or None.
    known: object = None


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass, in seeded order
    size: dict  # input sizes, recorded in the run metadata
    state: dict = field(default_factory=dict)

    def run(self, op: Op):
        if op.kind == "classify":
            return classify.classify_all(op.arg)
        if op.kind == "find":
            return grouptheory.find_witness(op.arg, max_depth=WITNESS_DEPTH)
        if op.kind == "table":
            return grouptheory.witness_table(*op.arg)
        if op.kind == "scan":
            return cli.main(op.arg)
        raise ValueError(op.kind)

    def directions(self, op: Op) -> int:
        """Directions an operation decides, for ``directions_per_s``."""
        if op.kind == "scan":
            return self.size["rows"]
        return 0 if op.kind == "table" else 1

    def check(self, op: Op, result) -> tuple[int, list[str]]:
        return _CHECKS[op.kind](self, op, result)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def canonical_pairs(bound: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(1, bound + 1) for q in range(p + 1) if gcd(p, q) == 1]


def _canon(d) -> tuple[int, int]:
    return (max(abs(d[0]), abs(d[1])), min(abs(d[0]), abs(d[1])))


def fourey_family() -> dict[tuple[int, int], list[int]]:
    """Direction -> coefficients for criterion 6's finite fractions, all of
    which are periodic, with an explicit witness word."""
    nonzero = [v for v in range(-FOUREY_BOUND, FOUREY_BOUND + 1) if v]
    out = {}
    for n in range(FOUREY_DEPTH + 1):
        for a0 in range(-FOUREY_BOUND, FOUREY_BOUND + 1):
            for tail in itertools.product(nonzero, repeat=n):
                coeffs = [a0, *tail]
                out.setdefault(tuple(grouptheory.fourey_direction(coeffs)), coeffs)
    return out


def _known(d, family_by_class) -> object:
    if d[0] % 2 and d[1] % 2:
        return "drift"
    return family_by_class.get(_canon(d))


def make_scan(seed: int, out_dir: Path, max_n: int = SCAN_MAX,
              checked_rows: int = SCAN_CHECKED_ROWS) -> Workload:
    """One ``mucube scan`` call; the seed picks the checked rows."""
    pairs = cli.scan_pairs(max_n)
    argv = ["scan", "--max", str(max_n), "--jobs", "1",
            "--out", str(out_dir / "scan.csv"), "--svg", str(out_dir / "scan.svg")]
    op = Op("scan", argv)
    size = {"max": max_n, "rows": len(pairs),
            "classes": len({_canon(d) for d in pairs}), "checked_rows": checked_rows}
    wl = Workload("scan", [op], size)
    wl.state["csv_path"] = out_dir / "scan.csv"
    wl.state["sample"] = sorted(random.Random(seed).sample(range(len(pairs)), checked_rows))
    return wl


def make_agree(seed: int, max_n: int = AGREE_MAX) -> Workload:
    """``classify_all`` on every canonical pair up to ``max_n``, seeded order."""
    family = {_canon(d): (coeffs, d) for d, coeffs in fourey_family().items()}
    dirs = canonical_pairs(max_n)
    random.Random(seed).shuffle(dirs)
    ops = [Op("classify", d, _known(d, family)) for d in dirs]
    return Workload("agree", ops, {"max": max_n, "directions": len(ops)})


def _odd_odd(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        s = rng.randrange(lo, hi) // 2 * 2
        p = rng.randrange(1, s, 2)
        if gcd(p, s - p) == 1:
            d = (p * rng.choice((1, -1)), (s - p) * rng.choice((1, -1)))
            return d if rng.random() < 0.5 else (d[1], d[0])


def make_deep(seed: int, edges=DEEP_EDGES, n_blocks: int = DEEP_BLOCKS) -> Workload:
    """Blocks of long directions: per size bucket, one finite four-multiple
    fraction (known periodic) and one odd/odd direction (known drift)."""
    buckets = list(zip(edges, edges[1:]))
    family = fourey_family()
    pools = [sorted(d for d in family if lo <= abs(d[0]) + abs(d[1]) < hi)
             for lo, hi in buckets]
    for (lo, hi), pool in zip(buckets, pools):
        if not pool:
            raise ValueError(f"no four-multiple fraction with {lo} <= |p|+|q| < {hi}")

    def blocks() -> Iterator[Op]:
        rng = random.Random(seed)
        for _ in range(n_blocks):
            block = []
            for (lo, hi), pool in zip(buckets, pools):
                d = rng.choice(pool)
                block.append(Op("classify", d, (family[d], d)))
                block.append(Op("classify", _odd_odd(rng, DRIFT_SCALE * lo, DRIFT_SCALE * hi),
                                 "drift"))
            rng.shuffle(block)
            yield from block

    return Workload("deep", list(blocks()),
                    {"edges": list(edges), "drift_scale": DRIFT_SCALE, "blocks": n_blocks,
                     "directions": 2 * len(buckets) * n_blocks})


def make_witness(seed: int, max_n: int = WITNESS_MAX, table_args=TABLE_ARGS) -> Workload:
    """One ``witness_table`` call and ``find_witness`` on every canonical
    direction up to ``max_n`` in seeded order."""
    dirs = canonical_pairs(max_n)
    random.Random(seed).shuffle(dirs)
    round_ops = [Op("table", tuple(table_args))] + [Op("find", d) for d in dirs]
    wl = Workload("witness", round_ops,
                  {"max": max_n, "directions": len(dirs), "max_depth": WITNESS_DEPTH,
                   "table": list(table_args)})
    # Verdicts that say which directions may have a witness, decided by the
    # oracle before anything is timed.
    bound = max(max_n, table_args[0])
    wl.state["verdict"] = {d: classify.classify_oracle(d).verdict for d in canonical_pairs(bound)}
    return wl


def make(name: str, seed: int, out_dir: Path) -> Workload:
    if name == "scan":
        return make_scan(seed, out_dir)
    return {"agree": make_agree, "deep": make_deep, "witness": make_witness}[name](seed)


WORKLOADS = ("scan", "agree", "deep", "witness")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# Each check returns (checks made, one message per failed check).

def _check_classify(wl, op, c) -> tuple[int, list[str]]:
    d = op.arg
    errors = []
    if op.known == "drift" and c.verdict != "drift":
        errors.append(f"{d}: odd/odd direction reported {c.verdict}")
    if isinstance(op.known, tuple):
        coeffs, fd = op.known
        if c.verdict != "periodic":
            errors.append(f"{d}: four-multiple fraction {coeffs} reported {c.verdict}")
        word = grouptheory.fourey_word(coeffs)
        m = grouptheory.eval_word(word)
        if (m[0], m[2]) not in (fd, (-fd[0], -fd[1])) or not grouptheory.is_in_gamma(word):
            errors.append(f"{d}: witness word of {coeffs} does not certify {fd}")
    if c.verdict == "drift":
        x_disp = tuple(c.certificate["per_method"]["x"]["displacement"])
        if tuple(c.certificate["drift_vector"]) != x_disp:
            errors.append(f"{d}: oracle drift vector differs from X displacement {x_disp}")
    return 1, ["; ".join(errors)] if errors else []


def _word_error(d, w) -> Optional[str]:
    m = grouptheory.eval_word(w)
    if (m[0], m[2]) not in (tuple(d), (-d[0], -d[1])):
        return f"{d}: word {w} has first column {(m[0], m[2])}"
    if not grouptheory.is_upper_unipotent(grouptheory.rho(w)):
        return f"{d}: word {w} has rho {grouptheory.rho(w)}, not upper unipotent"
    return None


def _check_find(wl, op, w) -> tuple[int, list[str]]:
    verdict = wl.state["verdict"][_canon(op.arg)]
    if w is None:
        return 1, []
    if verdict == "drift":
        return 1, [f"{op.arg}: drift direction has witness {w}"]
    err = _word_error(op.arg, w)
    return 1, [err] if err else []


def _check_table(wl, op, table) -> tuple[int, list[str]]:
    errors = []
    for d, w in table.items():
        if wl.state["verdict"][_canon(d)] == "drift":
            errors.append(f"{d}: drift direction has table witness {w}")
        err = _word_error(d, w)
        if err:
            errors.append(err)
    return 1, ["; ".join(errors)] if errors else []


def _check_scan(wl, op, code) -> tuple[int, list[str]]:
    if code != 0:
        return 1, [f"scan exited {code}"]
    csv = wl.state["csv_path"].read_text()
    first = wl.state.setdefault("csv", csv)
    if csv != first:
        return 1, ["scan CSV differs from the first call's"]
    if wl.state.get("rows_checked"):
        return 1, []
    wl.state["rows_checked"] = True
    rows = csv.splitlines()[1:]
    errors = [e for e in (row_error(rows[i]) for i in wl.state["sample"]) if e]
    return 1 + len(wl.state["sample"]), errors


_CHECKS = {"classify": _check_classify, "find": _check_find,
           "table": _check_table, "scan": _check_scan}
