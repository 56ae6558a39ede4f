"""Seeded operation lists for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
make-up (the same number of ops of each kind and size class); the seed only
picks the models, classes and matrices inside that make-up, so run-to-run
figures depend on the seed as little as possible and every run that attempts
whole rounds attempts the same share of the failing snf ops.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from checks import format_class, basis


@dataclass
class Op:
    kind: str  # classify | obstruct | snf | group
    argv: list[str]
    as_json: bool = True
    dims: tuple[int, ...] = ()
    degrees: tuple[int, ...] = ()
    assumption: str = ""
    c1: str = ""
    c2: str = ""
    matrix: list[list[int]] = field(default_factory=list)
    label: str = ""  # names an input that does not depend on the seed


def _ambient_arg(dims) -> str:
    return ",".join(map(str, dims))


class _Stride:
    """Cycles through items sorted by cost with a seeded start and a stride near
    0.382 of their number, coprime to it.

    Every item is drawn once before any repeats, and the first few draws
    already spread evenly over the cost range, so the mean cost of a run's
    draws depends little on the seed or on how many rounds the run completes.
    """

    def __init__(self, rng: random.Random, items):
        self.items = sorted(items)
        n = len(self.items)
        self.step = next(k for k in range(max(1, round(0.382 * n)), n + 1) if math.gcd(k, n) == 1)
        self.at = rng.randrange(n)

    def draw(self):
        item = self.items[self.at]
        self.at = (self.at + self.step) % len(self.items)
        return item


# ---------------------------------------------------------------- classify

# P^4 degrees in six cost strata (rows = d^2); one op per stratum per round.
# The strata are narrower in the middle, where the 90th percentile of op
# latency falls.
P4_STRATA = ((30, 55), (55, 68), (68, 80), (80, 92), (92, 105), (105, 131))
# The first round's top-stratum op is always the largest P^4 model, even-degree
# and --json, so every run's memory high-water mark is set by the same op.
P4_LARGEST = 130
# P^1 x P^3 bidegrees (d1 < 400, d2 < 12) in eight geometric strata of the row
# count d1 * d2^3 between 100 and 1500, two ops per stratum per round.
P13_STRATA = tuple((round(100 * 15 ** (i / 8)), round(100 * 15 ** ((i + 1) / 8))) for i in range(8))


def classify_rounds(seed: int):
    """Each round: 6 P^4 sweeps, one per degree stratum, three naive and three
    even-degree; 16 P^1 x P^3 even-degree sweeps, two per row-count stratum;
    half of the ops in text and half with --json, taken over two rounds; in
    seeded order.

    Within a stratum, models repeat only after all of its models have been
    used (12 to 25 P^4 degrees per stratum; at least 40 bidegrees per
    P^1 x P^3 stratum).
    """
    rng = random.Random(f"classify-{seed}")
    p4 = [_Stride(rng, [d for d in range(lo, hi) if d != P4_LARGEST]) for lo, hi in P4_STRATA]
    bideg = [(d1 * d2 ** 3, d2, d1) for d1 in range(1, 400) for d2 in range(1, 12)]
    p13 = [_Stride(rng, [b for b in bideg if lo <= b[0] < hi]) for lo, hi in P13_STRATA]
    flip = rng.randrange(2)
    for r in itertools.count():
        ops = []
        for s, pool in enumerate(p4):
            if r == 0 and s == len(p4) - 1:
                ops.append(((4,), (P4_LARGEST,), "even-degree", True))
            else:
                assumption = ("naive", "even-degree")[(r + s + flip) % 2]
                ops.append(((4,), (pool.draw(),), assumption, (r + s // 2) % 2 == 1))
        for pool in p13:
            for as_json in (False, True):
                _, d2, d1 = pool.draw()
                ops.append(((1, 3), (d1, d2), "even-degree", as_json))
        rng.shuffle(ops)
        yield [
            Op("classify", ["classify", "--ambient", _ambient_arg(dims), "--degree", _ambient_arg(degrees),
                            "--assumption", assumption] + (["--json"] if as_json else []),
               as_json, dims, degrees, assumption)
            for dims, degrees, assumption, as_json in ops
        ]


# ---------------------------------------------------------------- obstruct

# All five ambients of total dimension 4, each with every built-in assumption
# that applies to it (even-degree is certified on P^4 and P^1 x P^3 only).
OBSTRUCT_CASES = (
    ((4,), ("naive", "even-degree", "nori")),
    ((1, 3), ("naive", "even-degree", "nori")),
    ((2, 2), ("naive", "nori")),
    ((1, 1, 2), ("naive", "nori")),
    ((1, 1, 1, 1), ("naive", "nori")),
)
OBSTRUCT_MAX_DEGREE = {1: 10 ** 6, 2: 999, 3: 99, 4: 49}


def _random_class(rng: random.Random, dims, degree: int) -> str:
    return format_class({e: rng.randint(-6, 6) for e in basis(dims, degree)})


def obstruct_rounds(seed: int):
    """Each round: one obstruct --json op per (ambient, assumption) case, 12 ops.

    Every op uses a model (ambient, multidegree) not used before in the run,
    so each op builds its groups cold; Chern pairs are seeded random lifts
    with coefficients in [-6, 6].
    """
    rng = random.Random(f"obstruct-{seed}")
    used: set = set()
    while True:
        ops = []
        for dims, assumptions in OBSTRUCT_CASES:
            top = OBSTRUCT_MAX_DEGREE[len(dims)]
            for assumption in assumptions:
                degrees = tuple(rng.randint(1, top) for _ in dims)
                while (dims, degrees) in used:
                    degrees = tuple(rng.randint(1, top) for _ in dims)
                used.add((dims, degrees))
                c1, c2 = _random_class(rng, dims, 1), _random_class(rng, dims, 2)
                argv = ["obstruct", "--json", "--ambient", _ambient_arg(dims),
                        "--degree", _ambient_arg(degrees), f"--c1={c1}", f"--c2={c2}",
                        "--assumption", assumption]
                ops.append(Op("obstruct", argv, True, dims, degrees, assumption, c1, c2))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------- normal forms

def _random_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    return [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)]


# Seed-independent inputs, generated from fixed labels.  Seeded snf inputs
# stay at or below 8 x 8: from 10 x 10 up some seeded inputs produce a
# transform entry of more than 4300 decimal digits, and whether a run hits one
# would depend on the seed.  The transform sizes above 8 are covered by these
# fixed inputs instead.  FIXED_FAILING_SNF fails every time with exit 2 today
# (its transforms reach 25,300 bits); the other fixed inputs succeed.
FIXED_SNF = ("snf-16-a", 16), ("snf-20-b", 20)
FIXED_FAILING_SNF = ("snf-20-a", 20)
FIXED_GROUP = ("group-20-a", 20), ("group-24-d", 24)


def fixed_matrix(label: str, n: int) -> list[list[int]]:
    return _random_matrix(random.Random(label), n, n)


def normal_form_rounds(seed: int):
    """Each round, 25 ops:

    * 8 seeded snf --json, shapes m x n with m, n in 3..8;
    * 3 fixed snf --json: one 16 x 16 and two 20 x 20;
    * 12 seeded group --json, square n in 10..16 or one row more or fewer;
    * 2 fixed group --json: 20 x 20 and 24 x 24.

    Seeded group inputs stop at 16 because from about 18 up a rare input takes
    many times the usual SNF time, which would make a run's time depend on
    its seed; the fixed inputs cover the larger sizes.
    """
    rng = random.Random(f"normal-forms-{seed}")
    while True:
        ops = []
        for _ in range(8):
            a = _random_matrix(rng, rng.randint(3, 8), rng.randint(3, 8))
            ops.append(Op("snf", ["snf", "--json", "--matrix", json.dumps(a)], matrix=a))
        for label, n in FIXED_SNF + (FIXED_FAILING_SNF,):
            a = fixed_matrix(label, n)
            ops.append(Op("snf", ["snf", "--json", "--matrix", json.dumps(a)], matrix=a, label=label))
        for i in range(12):
            n = rng.randint(10, 16)
            m = n + (0, 0, 1, -1)[i % 4]
            a = _random_matrix(rng, m, n)
            ops.append(Op("group", ["group", "--json", "--relations", json.dumps(a)], matrix=a))
        for label, n in FIXED_GROUP:
            a = fixed_matrix(label, n)
            ops.append(Op("group", ["group", "--json", "--relations", json.dumps(a)], matrix=a, label=label))
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "classify": classify_rounds,
    "obstruct": obstruct_rounds,
    "normal-forms": normal_form_rounds,
}
