"""Independent checks of chowobstruct CLI outputs.

Nothing here imports chowobstruct.  Classes are parsed from the printed
strings by this module's own parser, Sq^2 comes from the total Steenrod
square Sq(x^a) = x^a (1 + x)^a, cup products are taken in the truncated ring
directly, and every verdict is decided by GF(2) elimination against the
divisor-multiple relations z * (degree-2 monomials) and the documented
even-degree generators.  Normal forms are checked through properties that do
not need a normal-form algorithm: u*a*v = s exactly, the divisor chain, the
product of the diagonal against a Bareiss determinant, and for small primes p
the number of diagonal entries divisible by p against n - rank(a mod p).

Every check raises CheckError on the first disagreement.
"""

from __future__ import annotations

import json
import math
import re
from itertools import product

SMALL_PRIMES = (2, 3, 5, 7)
VERDICTS = ("ALGEBRAIZABLE", "NOT_ALGEBRAIZABLE", "UNDETERMINED")

# Degree-3 generators of the certified even-degree subgroups, as documented in
# the chowobstruct README, written as (coefficient, exponents).
EVEN_DEGREE_GENERATORS = {
    (1, 3): ((2, (1, 2)), (1, (0, 3))),
    (4,): ((2, (3,)),),
}


class CheckError(Exception):
    """An output disagrees with the independent recomputation."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- ring side

def basis(dims: tuple[int, ...], degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the given total degree inside the truncation bounds."""
    return [e for e in product(*(range(n + 1) for n in dims)) if sum(e) == degree]


_TERM_RE = re.compile(r"^(-?)(?:(\d+)\*)?(.*)$")
_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_class(dims: tuple[int, ...], text: str, degree: int) -> dict[tuple[int, ...], int]:
    """Parse a printed class such as '3*x1*x2 - x2^2' into {exponents: coefficient}.

    Accepts the output format only: terms joined by ' + ' or ' - ', each an
    optional integer coefficient followed by '*'-joined powers of x1..xk.
    """
    text = text.strip()
    out: dict[tuple[int, ...], int] = {}
    if text == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM_RE.match(term.strip())
        sign, coeff, mono = m.group(1), m.group(2), m.group(3)
        if mono.isdigit() and coeff is None:
            coeff, mono = mono, ""
        exps = [0] * len(dims)
        for factor in filter(None, mono.split("*")):
            fm = _FACTOR_RE.match(factor)
            _require(fm is not None, f"cannot parse factor {factor!r} in {text!r}")
            idx = int(fm.group(1)) - 1
            _require(0 <= idx < len(dims), f"{factor!r} is not a factor of P^{dims}")
            exps[idx] += int(fm.group(2) or 1)
        e = tuple(exps)
        _require(sum(e) == degree, f"term {term!r} of {text!r} is not of degree {degree}")
        _require(all(a <= n for a, n in zip(e, dims)), f"term {term!r} is past a truncation bound")
        c = int(coeff or 1) * (-1 if sign else 1)
        _require(c != 0 and e not in out, f"class {text!r} is not in reduced form")
        out[e] = c
    return out


def format_class(coeffs: dict[tuple[int, ...], int]) -> str:
    """Write a class in the CLI's input syntax, highest monomial first."""
    terms = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "*".join(f"x{i + 1}" if a == 1 else f"x{i + 1}^{a}" for i, a in enumerate(e) if a)
        body = mono if abs(c) == 1 and mono else (f"{abs(c)}*{mono}" if mono else str(abs(c)))
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def odd_part(coeffs: dict[tuple[int, ...], int]) -> frozenset:
    """The class mod 2, as the set of monomials with an odd coefficient."""
    return frozenset(e for e, c in coeffs.items() if c % 2)


def sq2_mod2(dims: tuple[int, ...], cls: frozenset) -> frozenset:
    """Sq^2 of a mod-2 class, read off the total square Sq(x^a) = x^a (1 + x)^a.

    Sq^2 of a monomial is the part of its total square one degree higher: the
    product over factors of sum_b C(a_i, b) x_i^(a_i + b) with sum b_i = 1.
    """
    out: set = set()
    for e in cls:
        for i in range(len(dims)):
            bumped = e[:i] + (e[i] + 1,) + e[i + 1:]
            if math.comb(e[i], 1) % 2 and bumped[i] <= dims[i]:
                out ^= {bumped}
    return frozenset(out)


def cup_mod2(dims: tuple[int, ...], a: frozenset, b: frozenset) -> frozenset:
    out: set = set()
    for ea in a:
        for eb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= n for x, n in zip(e, dims)):
                out ^= {e}
    return frozenset(out)


def theta_mod2(dims: tuple[int, ...], c1: frozenset, c2: frozenset) -> frozenset:
    """theta = Sq^2(c2) + c1 * c2 in CH^3 of the ambient, mod 2."""
    return sq2_mod2(dims, c2) ^ cup_mod2(dims, c1, c2)


class _Gf2Span:
    """Row-echelon basis of a GF(2) span, vectors stored as int bitmasks."""

    def __init__(self, vectors):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            v = self.reduce(v)
            if v:
                self.pivots[v.bit_length() - 1] = v

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            row = self.pivots.get(top)
            if row is None:
                return v
            v ^= row
        return 0


class VerdictOracle:
    """Decides verdicts for one (ambient, multidegree) by GF(2) elimination."""

    def __init__(self, dims: tuple[int, ...], degrees: tuple[int, ...]):
        self.dims = dims
        self.index = {e: i for i, e in enumerate(basis(dims, 3))}
        z = frozenset(tuple(int(j == i) for j in range(len(dims))) for i, d in enumerate(degrees) if d % 2)
        naive = [self._mask(cup_mod2(dims, z, frozenset([m]))) for m in basis(dims, 2)]
        self.naive = _Gf2Span(naive)
        gens = EVEN_DEGREE_GENERATORS.get(dims)
        self.even = None if gens is None else _Gf2Span(self._mask(frozenset([e]) if c % 2 else frozenset()) for c, e in gens)
        self._memo: dict = {}

    def _mask(self, cls: frozenset) -> int:
        return sum(1 << self.index[e] for e in cls)

    def decide(self, assumption: str, c1: frozenset, c2: frozenset) -> tuple[str, frozenset, bool, bool]:
        """Return (verdict, theta mod 2, theta zero in naive quotient, theta zero in assumption quotient)."""
        key = (assumption, c1, c2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        th = theta_mod2(self.dims, c1, c2)
        mask = self._mask(th)
        naive_zero = self.naive.reduce(mask) == 0
        if assumption == "naive":
            assm_zero = naive_zero
            verdict = "ALGEBRAIZABLE" if naive_zero else "UNDETERMINED"
        elif assumption == "nori":
            assm_zero = naive_zero
            verdict = "ALGEBRAIZABLE" if naive_zero else "NOT_ALGEBRAIZABLE"
        elif assumption == "even-degree":
            _require(self.even is not None, f"even-degree does not apply to P^{self.dims}")
            assm_zero = self.even.reduce(mask) == 0
            if not assm_zero:
                verdict = "NOT_ALGEBRAIZABLE"
            else:
                verdict = "ALGEBRAIZABLE" if naive_zero else "UNDETERMINED"
        else:
            raise CheckError(f"no independent rule for assumption {assumption!r}")
        out = (verdict, th, naive_zero, assm_zero)
        self._memo[key] = out
        return out


def classify_size(dims: tuple[int, ...], degrees: tuple[int, ...]) -> int:
    """|CH^1| * |CH^2| from the closed forms: d*d on P^4, d1*d2 * d2^2 on P^1 x P^3."""
    if dims == (4,):
        (d,) = degrees
        return d * d
    if dims == (1, 3):
        d1, d2 = degrees
        return d1 * d2 * d2 * d2
    raise CheckError(f"no closed form for P^{dims}")


def coset_key(dims: tuple[int, ...], degrees: tuple[int, ...], c1: dict, c2: dict) -> tuple:
    """A canonical label of the coset pair (c1 mod naive CH^1 relations, c2 mod naive CH^2 relations).

    P^4: CH^1 = Z x1 / d, CH^2 = Z x1^2 / d.  P^1 x P^3: CH^1 = Z x1 / d1 + Z x2 / d2
    and CH^2 = Z{x1*x2, x2^2} / <(d2, 0), (d1, d2)>, reduced by the last
    coordinate first.
    """
    if dims == (4,):
        (d,) = degrees
        return (c1.get((1,), 0) % d, c2.get((2,), 0) % d)
    d1, d2 = degrees
    p, q = c2.get((1, 1), 0), c2.get((0, 2), 0)
    t = q // d2
    return (c1.get((1, 0), 0) % d1, c1.get((0, 1), 0) % d2, (p - t * d1) % d2, q - t * d2)


# ------------------------------------------------------------ CLI outputs

def check_classify(out: str, as_json: bool, dims, degrees, assumption: str) -> int:
    """Check a classify table; return its number of verdict rows."""
    if as_json:
        rows = [(r["c1"], r["c2"], r["verdict"]) for r in json.loads(out)]
    else:
        lines = out.rstrip("\n").split("\n")
        _require(lines[0] == "c1\tc2\tverdict", f"bad header {lines[0]!r}")
        rows = [tuple(line.split("\t")) for line in lines[1:]]
    oracle = VerdictOracle(dims, degrees)
    expected = classify_size(dims, degrees)
    _require(len(rows) == expected, f"{len(rows)} rows, closed form gives {expected}")
    seen = set()
    # A table of |CH^1| * |CH^2| rows prints each class string |CH^1| or
    # |CH^2| times; parse each string once.
    parsed: dict[tuple[str, int], tuple[dict, frozenset]] = {}

    def parse(text: str, degree: int) -> tuple[dict, frozenset]:
        hit = parsed.get((text, degree))
        if hit is None:
            cls = parse_class(dims, text, degree)
            hit = parsed[text, degree] = (cls, odd_part(cls))
        return hit

    for row in rows:
        _require(len(row) == 3, f"malformed row {row!r}")
        c1, c1_odd = parse(row[0], 1)
        c2, c2_odd = parse(row[1], 2)
        key = coset_key(dims, degrees, c1, c2)
        _require(key not in seen, f"pair {row[0]!r}, {row[1]!r} repeats a coset pair")
        seen.add(key)
        verdict = oracle.decide(assumption, c1_odd, c2_odd)[0]
        _require(row[2] == verdict, f"({row[0]}, {row[1]}): printed {row[2]}, recomputed {verdict}")
    return len(rows)


def check_obstruct(out: str, dims, degrees, assumption: str, c1_text: str, c2_text: str) -> int:
    """Check one obstruct --json report; return 1 (one verdict row)."""
    data = json.loads(out)
    c1_in, c2_in = parse_class(dims, c1_text, 1), parse_class(dims, c2_text, 2)
    _require(parse_class(dims, data["c1"], 1) == c1_in, f"c1 echoed as {data['c1']!r}, sent {c1_text!r}")
    _require(parse_class(dims, data["c2"], 2) == c2_in, f"c2 echoed as {data['c2']!r}, sent {c2_text!r}")
    _require(data["assumption"] == assumption, f"assumption echoed as {data['assumption']!r}")
    verdict, th, naive_zero, assm_zero = VerdictOracle(dims, degrees).decide(
        assumption, odd_part(c1_in), odd_part(c2_in)
    )
    printed_theta = parse_class(dims, data["theta"], 3)
    _require(odd_part(printed_theta) == th and all(c in (0, 1) for c in printed_theta.values()),
             f"theta printed as {data['theta']!r}, recomputed {format_class({e: 1 for e in th})!r}")
    _require(data["verdict"] == verdict, f"verdict {data['verdict']}, recomputed {verdict}")
    jst = data["justification"]
    _require(jst["naive_theta_zero"] is naive_zero, "naive_theta_zero disagrees with GF(2) elimination")
    _require(jst["assumption_theta_zero"] is assm_zero, "assumption_theta_zero disagrees with GF(2) elimination")
    _require(data["theta_image"]["is_zero"] is assm_zero, "theta_image.is_zero disagrees with GF(2) elimination")
    return 1


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _check_chain(diag: list[int], what: str):
    _require(all(d >= 0 for d in diag), f"{what} has a negative entry")
    nonzero = [d for d in diag if d]
    _require(diag[:len(nonzero)] == nonzero, f"{what} has a zero before a nonzero entry")
    _require(all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), f"{what} is not a divisor chain")


def _check_invariants(a: list[list[int]], diag: list[int], ncols: int, what: str):
    """Determinant and mod-p rank properties shared by snf and group outputs.

    diag lists the full diagonal padded with zeros to ncols entries; entries
    equal to 1 may be missing, since they affect neither property.
    """
    if len(a) == ncols:
        _require(math.prod(diag) == abs(bareiss_det(a)), f"{what}: product is not |det a|")
    for p in SMALL_PRIMES:
        divisible = sum(1 for d in diag if d % p == 0)
        _require(divisible == ncols - rank_mod_p(a, p),
                 f"{what}: {divisible} entries divisible by {p}, rank mod {p} disagrees")


def _matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def _ints(rows) -> list[list[int]]:
    return [[int(e) for e in r] for r in rows]


def check_snf(out: str, a: list[list[int]]) -> int:
    """Check an snf --json output for matrix a; return the number of rows reduced."""
    data = json.loads(out)
    m, n = len(a), len(a[0])
    u, s, v = _ints(data["u"]), _ints(data["s"]), _ints(data["v"])
    diag = [int(d) for d in data["diagonal"]]
    _require(len(u) == m and all(len(r) == m for r in u), "u is not m x m")
    _require(len(v) == n and all(len(r) == n for r in v), "v is not n x n")
    _require(len(s) == m and all(len(r) == n for r in s), "s is not m x n")
    _require(len(diag) == min(m, n), "diagonal has the wrong length")
    _require(all(s[i][j] == (diag[i] if i == j else 0) for i in range(m) for j in range(n)),
             "s is not diag(diagonal)")
    _require(_matmul(_matmul(u, a), v) == s, "u * a * v != s")
    _check_chain(diag, "snf diagonal")
    _check_invariants(a, diag + [0] * (n - min(m, n)), n, "snf diagonal")
    return m


def check_group(out: str, a: list[list[int]]) -> int:
    """Check a group --json output for relation matrix a; return the number of rows reduced."""
    data = json.loads(out)
    n = len(a[0])
    factors = [int(f) for f in data["invariant_factors"]]
    _require(data["generators"] == [f"g{i + 1}" for i in range(n)], "generators not echoed")
    _require(_ints(data["relations"]) == a, "relations not echoed")
    _require(all(f != 1 for f in factors), "invariant factors include a 1")
    _check_chain(factors, "invariant factors")
    describe = " ⊕ ".join("Z" if f == 0 else f"Z/{f}" for f in factors) or "0"
    _require(data["group"] == describe, f"group described as {data['group']!r}")
    _check_invariants(a, factors, n, "invariant factors")
    return len(a)
