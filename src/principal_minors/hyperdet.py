"""Cayley's 2x2x2 hyperdeterminant and the degree-4 module it generates.

For every 3-subset T of the factors, the hyperdeterminant hwv_T written
on the 8 coordinates supported on T is a highest weight vector (weight
0 on T, -4 elsewhere).  Cayley's form is written once, as the
discriminant d1^2 - 4 d0 d2 of det(A0 + y A1) (`_cayley`).  Lowering
hwv_T through the complementary factors over the exponent box
{0..4}^(n-3) yields a weight basis of its irreducible summand; the union
over all triples is a basis of the whole module, of dimension C(n,3) *
5^(n-3).  Only the (1,2,3) summand is lowered: the group action `act`,
with a factor permutation, moves it to every other triple's.  The basis
is built for n <= MAX_BASIS_FACTORS only: at n = 7 each of the 35
triples gives about 600,000 terms, so the whole basis would hold 21
million terms, about 1.4 GB, although it would take only about 25 s
(2.4 s to lower (1,2,3), 0.65 s to move it to each other triple, on a
2-core x86 VM with Python 3.11).

This module alone knows what an entry is.  The entry (T, e) has index
rank(T) * 5^(n-3) + key, T the lex rank(T)-th triple and key the
odometer rank of e (the last outside factor fastest), as hd_basis
orders them.  With u(s) = [[1, s_k], [0, 1]] on the factors outside T,
lowering in factor k is d/ds_k at s = 0, so lower^e hwv_T = e! P_e for
P_e the coefficient of s^e in hwv_T(u(s) . X), which has integer
coefficients.  The entry is P_e / sigma_e, sigma_e the signed content of
P_e (`entry_content`), and its value at z is c_e / sigma_e, c_e the
coefficient of s^e in hwv_T(u(s) . z): `first_nonzero_entry` answers a
basis membership check with no entry built, at any n.

The prefilter (`first_nonzero_slice`) reads the same form's value
sum_e c_e s^e at one s of 32-bit shifts, with no coefficient built: it applies
u(s) in place to the primitive integer multiple of z and reads Cayley's form
on each triple's slice with the other factors at 0.  SL(2)^n keeps
Z_n, and the outside-0 slice of phi(A, t) is t^(n-3) phi(A_T, t), in Z_3.  The
form is SL(2)-invariant in T's factors, so one u(s) serves every T; of degree
at most 4 in each s_k, with the 0/1 slices outside T as corners, it misses a
non-member the module detects with probability at most 4(n-3)/N, s_k from N values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, factorial, gcd
from typing import Optional

from .indices import MinorVector
from .polynomials import GroupElement, TensorPolynomial, Weight, act, lower
from .rep_theory import weight_basis
from .scalars import Scalar, clear_denominators, excerpt, normalize

MAX_BASIS_FACTORS = 6


def _cayley(x, products=lambda terms: sum(c * f * g for c, f, g in terms)):
    """Cayley's form on the eight slice values x[t], bit b of t the
    triple's b-th factor: with A0 and A1 the halves of the 2x2x2 array by
    its first factor, det(A0 + y A1) = d0 + d1 y + d2 y^2, and the form is
    the discriminant d1^2 - 4 d0 d2.  products(terms) is the sum of
    c * f * g over the (c, f, g) in terms, in the ring of the x[t]; ints by default."""
    d0 = products([(1, x[0], x[6]), (-1, x[2], x[4])])
    d1 = products([(1, x[0], x[7]), (1, x[1], x[6]), (-1, x[2], x[5]), (-1, x[3], x[4])])
    d2 = products([(1, x[1], x[7]), (-1, x[3], x[5])])
    return products([(1, d1, d1), (-4, d0, d2)])


def _slice(triple) -> list[int]:
    """Encodings of the outside-0 slice x[t] of the 0-based triple, bit b of t its b-th."""
    return [sum(1 << v for b, v in enumerate(triple) if t >> b & 1) for t in range(8)]


def cayley_hyperdet(n: int, triple: tuple[int, int, int], outside: int = 0
                    ) -> TensorPolynomial:
    """The 12-term degree-4 hyperdeterminant on the coordinates supported
    on the given triple of factors (1-based, i < j < k).

    Factors outside the triple carry the constant bit `outside`: 0 gives
    the highest weight vector of the triple's summand, 1 its fully
    lowered lowest weight companion.
    """
    if len(set(triple)) != 3 or any(not 1 <= t <= n for t in triple):
        raise ValueError(f"invalid triple {triple} for n={n}")
    if outside not in (0, 1):
        raise ValueError("outside bit must be 0 or 1")
    factors = [t - 1 for t in sorted(triple)]
    base = ((1 << n) - 1) & ~sum(1 << v for v in factors) if outside else 0
    x = [TensorPolynomial.variable(n, base | enc) for enc in _slice(factors)]
    return _cayley(x, lambda terms: sum((c * f * g for c, f, g in terms), TensorPolynomial.zero(n)))


def hd_dimension(n: int) -> int:
    """C(n,3) * 5^(n-3)."""
    if n < 3:
        raise ValueError("module is empty below 3 factors")
    return comb(n, 3) * 5 ** (n - 3)


@dataclass(frozen=True)
class BasisEntry:
    triple: tuple[int, int, int]
    exponents: tuple[int, ...]  # lowering depths over the complementary factors, ascending
    polynomial: TensorPolynomial
    weight: Weight


@dataclass(frozen=True)
class ModuleBasis:
    n: int
    entries: tuple[BasisEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@lru_cache(maxsize=None)
def hd_basis(n: int) -> ModuleBasis:
    """Weight basis of the whole degree-4 module: triples in lex order,
    exponent boxes in odometer order, every entry normalized to integer
    content 1 with positive leading coefficient.  Bounded at
    n <= MAX_BASIS_FACTORS."""
    if n < 3:
        raise ValueError("module is empty below 3 factors")
    if n > MAX_BASIS_FACTORS:
        raise ValueError(f"the degree-4 module basis is built for n <= {MAX_BASIS_FACTORS}"
                         f" only, got n={excerpt(n)}")
    # Only the (1,2,3) summand is lowered.  The factor permutation sending
    # 1, 2, 3 to T and 4..n in order to T's complement maps the (1,2,3)
    # hyperdeterminant to T's and lowering in factor 3 + j to lowering in
    # T's j-th complementary factor, so `act` maps each (1,2,3) entry to the
    # T entry with the same exponents, up to the sign that normalized() fixes.
    lowered = weight_basis(cayley_hyperdet(n, (1, 2, 3)))
    entries: list[BasisEntry] = []
    for triple in combinations(range(1, n + 1), 3):
        complementary = [k for k in range(1, n + 1) if k not in triple]
        # factor i moves to permutation[i], 0-based, as in GroupElement
        move = GroupElement.from_permutation(n, [k - 1 for k in triple + tuple(complementary)])
        for vector in lowered:
            exps = vector.exponents[3:]
            weight = [0] * n
            for k, e in zip(complementary, exps):
                weight[k - 1] = -4 + 2 * e
            entries.append(BasisEntry(triple, exps, act(move, vector.polynomial).normalized(),
                                      tuple(weight)))
    return ModuleBasis(n, tuple(entries))


def _products(terms) -> dict:
    """The sum of c * f * g over the (c, f, g) in terms, for polynomials
    in s keyed as in `_slice_form`."""
    out: dict = {}
    for c, f, g in terms:
        for a, u in f.items():
            for b, v in g.items():
                out[a + b] = out.get(a + b, 0) + c * u * v
    return out


def _slice_form(z: MinorVector, triple: tuple[int, int, int]) -> dict:
    """hwv_T(u(s) . z) for the 0-based triple T, as a dict from keys to
    coefficients: the key of s^e is the odometer rank of e, sum e_j
    5^(m-1-j) over the m = n - 3 factors outside T.  Keys add with no
    carries, as every degree is at most 4.  Each slice value x_t, outside
    bits at 0, is multilinear in s, with the coordinates z_(t|B), B within
    the outside factors, as coefficients."""
    n, coords = z.n, z.coords
    subsets = [(0, 0)]  # (encoding of B, key of s^B)
    for j, k in enumerate(k for k in range(n) if k not in triple):
        subsets += [(enc | 1 << k, key + 5 ** (n - 4 - j)) for enc, key in subsets]
    x = [{key: c for enc, key in subsets if (c := coords[base | enc])}
         for base in _slice(triple)]
    return _cayley(x, _products)


def _primitive(z: MinorVector) -> tuple[list[int], Fraction]:
    """The coordinates of (L/g) z, the primitive integer multiple of the nonzero
    rational z, and (g/L)^4, which takes a degree-4 form's value there back to z."""
    common, ints = clear_denominators(z.coords)
    g = gcd(*ints)
    return [c // g for c in ints], Fraction(g, common) ** 4


def first_nonzero_entry(z: MinorVector) -> Optional[tuple[int, Scalar]]:
    """(index, value) of the first entry of hd_basis(z.n), in basis order,
    nonzero at the nonzero rational z, or None when all vanish there.  No
    entry is built, at any n: the value is c_e / sigma_e, c_e read off
    `_slice_form` of the primitive integer point one triple at a time."""
    n = z.n
    coords, scale = _primitive(z)
    point = MinorVector(n, tuple(coords))
    for rank, triple in enumerate(combinations(range(n), 3)):
        form = _slice_form(point, triple)
        key = min((key for key, c in form.items() if c), default=None)
        if key is not None:
            index = rank * 5 ** (n - 3) + key
            return index, normalize(form[key] * scale / entry_content(n, index))
    return None


def first_nonzero_slice(z: MinorVector) -> Optional[tuple[tuple, tuple, Scalar]]:
    """(T, s, value) for the first triple T, lex and 1-based, whose form
    hwv_T(u(s) . z) is nonzero at the nonzero rational z, s the n 32-bit
    shifts from random.Random(n); None when all vanish."""
    n = z.n
    s = tuple(map(random.Random(n).getrandbits, [32] * n))
    x, scale = _primitive(z)
    for k, s_k in enumerate(s):  # u(s) in place, one factor at a time
        bit = 1 << k
        for enc in range(1 << n):
            if not enc & bit:
                x[enc] += s_k * x[enc | bit]
    for triple in combinations(range(n), 3):
        value = _cayley([x[enc] for enc in _slice(triple)])
        if value:
            return tuple(t + 1 for t in triple), s, normalize(value * scale)
    return None


@lru_cache(maxsize=None)
def entry_content(n: int, index: int) -> int:
    """sigma_e, the signed integer content of P_e, for the entry (T, e)
    with this index, at every n >= 3: the entry is P_e / sigma_e.  Only
    the one lowering lower^e hwv_T = e! P_e is built, whose signed
    content is e! sigma_e; each result is one int, so the cache holds at
    most hd_dimension(n) of them per n."""
    if n < 3 or not 0 <= index < hd_dimension(n):
        raise ValueError(f"no entry {excerpt(index)} in the degree-4 module at n={excerpt(n)}")
    m = n - 3
    rank, key = divmod(index, 5 ** m)
    triple = next(islice(combinations(range(1, n + 1), 3), rank, None))
    poly, scale = cayley_hyperdet(n, triple), 1
    outside = [k for k in range(1, n + 1) if k not in triple]
    for j, k in enumerate(outside):
        e = key // 5 ** (m - 1 - j) % 5
        scale *= factorial(e)
        for _ in range(e):
            poly = lower(poly, k)
    return poly.content() // scale
