"""The squaring operation Sq^2 on mod-2 classes of products of projective spaces.

On these rings Sq^2 is determined by three facts: it is additive mod 2, it
squares degree-1 classes, and it satisfies the Cartan product rule
Sq^2(ab) = Sq^2(a) b + Sq^1(a) Sq^1(b) + a Sq^2(b).  The middle term never
contributes because Sq^1 vanishes identically: it maps CH^j/2 = H^{2j,j}(W, Z/2)
into H^{2j+1,j}(W, Z/2), which is zero for every smooth scheme W.  So on a
monomial m = x1^{a_1} ... xk^{a_k} the operation comes out as

    Sq^2(m) = w(m) * m   (mod 2),   w(m) = sum_i (a_i mod 2) * x_i,

multiplication by the parity divisor w(m) of m, with any factor pushed past
its truncation bound killing the term.  The output degree is always the
input degree plus one.

The rule has two readers.  _sq2_twisted applies it term by term, for sq2
and for obstruction.theta, which adds c1 to each parity divisor and so gets
theta = Sq^2(c2) + c1 * c2 in the same pass.  obstruction._parity_verdicts
applies it to the degree-2 basis monomials, whose squares it XORs together
from the products x_i * m it builds anyway.
"""

from __future__ import annotations

from typing import Sequence

from .chow import ChowClass


def sq2(c: ChowClass) -> ChowClass:
    """Sq^2 by the monomial rule of the module docstring; coefficients are read mod 2."""
    return _sq2_twisted(c, (0,) * c.ambient.k)


def _sq2_twisted(c: ChowClass, twist: Sequence[int]) -> ChowClass:
    """Sq^2(c) + t * c mod 2, for the degree-1 class t = sum_i twist[i] * x_i:
    each odd term m of c contributes (t + w(m)) * m, so x_i bumps m where
    twist[i] + a_i is odd and a_i is below x_i's truncation bound.  Only the
    parities of c and of twist are read."""
    dims = c.ambient.factor_dims
    coeffs: dict[tuple[int, ...], int] = {}
    for exps, coeff in c.items():
        if coeff % 2:
            for i, a in enumerate(exps):
                if (a + twist[i]) % 2 and a < dims[i]:
                    bumped = exps[:i] + (a + 1,) + exps[i + 1:]
                    coeffs[bumped] = coeffs.get(bumped, 0) ^ 1
    return ChowClass._trusted(c.ambient, c.degree + 1, coeffs)
