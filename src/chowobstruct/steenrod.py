"""The squaring operation Sq^2 on mod-2 classes of products of projective spaces.

On these rings Sq^2 is determined by three facts: it is additive mod 2, it
squares degree-1 classes, and it satisfies the Cartan product rule
Sq^2(ab) = Sq^2(a) b + Sq^1(a) Sq^1(b) + a Sq^2(b).  The middle term never
contributes because Sq^1 vanishes identically: it maps CH^j/2 = H^{2j,j}(W, Z/2)
into H^{2j+1,j}(W, Z/2), which is zero for every smooth scheme W.  So on a
monomial x1^{a_1} ... xk^{a_k} the operation comes out as

    sum_i a_i * x_i^{a_i + 1} * prod_{j != i} x_j^{a_j}   (mod 2),

with any factor pushed past its truncation bound killing the term.  The output
degree is always the input degree plus one.
"""

from __future__ import annotations

from typing import Sequence

from .chow import AmbientSpace, ChowClass


def sq2_monomial(ambient: AmbientSpace, exps: Sequence[int]) -> ChowClass:
    """Sq^2 of a single monomial, as a mod-2 class of one higher degree."""
    return sq2(ChowClass.monomial(ambient, exps))


def sq2(c: ChowClass) -> ChowClass:
    """Sq^2 by the monomial rule of the module docstring; coefficients are read mod 2."""
    dims = c.ambient.factor_dims
    coeffs: dict[tuple[int, ...], int] = {}
    for exps, coeff in c.items():
        if coeff % 2:
            for i, a in enumerate(exps):
                if a % 2 and a < dims[i]:
                    bumped = exps[:i] + (a + 1,) + exps[i + 1:]
                    coeffs[bumped] = coeffs.get(bumped, 0) ^ 1
    return ChowClass(c.ambient, c.degree + 1, coeffs)
