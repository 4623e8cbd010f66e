"""Cayley's 2x2x2 hyperdeterminant and the degree-4 module it generates.

For every 3-subset T of the factors, the hyperdeterminant written on
the 8 coordinates supported on T is a highest weight vector (weight 0
on T, -4 elsewhere).  Lowering it through the complementary factors
over the exponent box {0..4}^(n-3) yields a weight basis of its
irreducible summand; the union over all triples is a basis of the whole
module, of dimension C(n,3) * 5^(n-3).  Only the (1,2,3) summand is
lowered: a factor permutation moves it to every other triple's.  The
basis is built for n <= MAX_BASIS_FACTORS only: at n = 7 each of the 35
triples gives about 600,000 terms, so the whole basis would hold 21
million terms, about 1.4 GB, although it would take only about 30 s
(3 s to lower (1,2,3), 0.8 s to move it to each other triple, on a
2-core x86 VM with Python 3.11).  `entry_content` builds one entry's
lowering alone, at any n, for the integer it is divided by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import comb, gcd

from .polynomials import (
    FIELD_BITS,
    FIELD_MASK,
    REPEAT,
    TensorPolynomial,
    Weight,
    _invert_permutation,
    _permute_encoding,
    lower,
)
from .rep_theory import weight_basis
from .scalars import excerpt

MAX_BASIS_FACTORS = 6

# The 12 terms of the 2x2x2 hyperdeterminant: local bit patterns of the
# four variables in one monomial, and the coefficient.
_CAYLEY_TERMS: tuple[tuple[tuple[tuple[int, int, int], ...], int], ...] = (
    (((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)), 1),
    (((1, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, 1)), 1),
    (((0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1)), 1),
    (((0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0)), 1),
    (((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)), -2),
    (((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)), -2),
    (((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)), -2),
    (((1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)), -2),
    (((1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)), -2),
    (((0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)), -2),
    (((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), 4),
    (((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)), 4),
)


def cayley_hyperdet(n: int, triple: tuple[int, int, int], outside: int = 0
                    ) -> TensorPolynomial:
    """The 12-term degree-4 hyperdeterminant on the coordinates supported
    on the given triple of factors (1-based, i < j < k).

    Factors outside the triple carry the constant bit `outside`: 0 gives
    the highest weight vector of the triple's summand, 1 its fully
    lowered lowest weight companion.
    """
    if n < 3:
        raise ValueError("need at least 3 factors")
    if len(set(triple)) != 3 or any(not 1 <= t <= n for t in triple):
        raise ValueError(f"invalid triple {triple} for n={n}")
    if outside not in (0, 1):
        raise ValueError("outside bit must be 0 or 1")
    t1, t2, t3 = sorted(triple)
    base = 0
    if outside:
        base = ((1 << n) - 1) & ~((1 << (t1 - 1)) | (1 << (t2 - 1)) | (1 << (t3 - 1)))
    terms = [
        ([(base | (b1 << (t1 - 1)) | (b2 << (t2 - 1)) | (b3 << (t3 - 1)), 1)
          for b1, b2, b3 in patterns], coeff)
        for patterns, coeff in _CAYLEY_TERMS
    ]
    return TensorPolynomial.from_terms(n, terms)


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
    # T's j-th complementary factor, so it maps each (1,2,3) entry to the
    # T entry with the same exponents.  It keeps the integer content;
    # only the sign of the leading term, the largest key, can change.
    # Every term has degree 4, so its key has four fields; a moved and
    # sorted field equal to the one above it gets the REPEAT bit.
    lowered = []
    for vector in weight_basis(cayley_hyperdet(n, (1, 2, 3))):
        terms = vector.polynomial._terms
        fields = [(k >> 3 * FIELD_BITS, k >> 2 * FIELD_BITS & FIELD_MASK,
                   k >> FIELD_BITS & FIELD_MASK, k & FIELD_MASK) for k in terms]
        coeffs = list(terms.values())
        lowered.append((vector.exponents[3:], fields, coeffs, [-c for c in coeffs]))
    entries: list[BasisEntry] = []
    for triple in combinations(range(1, n + 1), 3):
        complementary = [k for k in range(1, n + 1) if k not in triple]
        # factor i moves to permutation[i], 0-based, as in GroupElement
        permutation = [k - 1 for k in triple + tuple(complementary)]
        inverse = _invert_permutation(permutation)
        table = [0] + [_permute_encoding(enc, inverse) + 1 for enc in range(1 << n)]
        for exps, fields, coeffs, negated in lowered:
            images = [sorted((table[a], table[b], table[c], table[d])) for a, b, c, d in fields]
            keys = [a << 3 * FIELD_BITS | (b | REPEAT if b == a else b) << 2 * FIELD_BITS
                    | (c | REPEAT if c == b else c) << FIELD_BITS | (d | REPEAT if d == c else d)
                    for a, b, c, d in images]
            signed = negated if coeffs[keys.index(max(keys))] < 0 else coeffs
            polynomial = TensorPolynomial(n, dict(zip(keys, signed)))
            weight = [0] * n
            for k, e in zip(complementary, exps):
                weight[k - 1] = -4 + 2 * e
            entries.append(BasisEntry(triple, exps, polynomial, tuple(weight)))
    return ModuleBasis(n, tuple(entries))


@lru_cache(maxsize=None)
def entry_content(n: int, index: int) -> int:
    """kappa, the signed integer content of lower^e hwv_T, where index =
    rank(T) * 5^(n-3) + key numbers the entries as hd_basis does (T the
    lex rank(T)-th triple, e the n-3 base-5 digits of key, the last
    outside factor's lowest), at every n >= 3: the entry is lower^e
    hwv_T / kappa.  Only this one lowering is built; each result is one
    int, so the cache holds at most hd_dimension(n) of them per n."""
    m = n - 3
    rank, key = divmod(index, 5 ** m)
    triple = next(islice(combinations(range(1, n + 1), 3), rank, None))
    poly = cayley_hyperdet(n, triple)
    outside = [k for k in range(1, n + 1) if k not in triple]
    for j, k in enumerate(outside):
        for _ in range(key // 5 ** (m - 1 - j) % 5):
            poly = lower(poly, k)
    terms = poly._terms
    content = gcd(*terms.values())
    return -content if terms[max(terms)] < 0 else content
