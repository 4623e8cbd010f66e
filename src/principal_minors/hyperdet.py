"""Cayley's 2x2x2 hyperdeterminant and the degree-4 module it generates.

For every 3-subset T of the factors, the hyperdeterminant written on
the 8 coordinates supported on T is a highest weight vector (weight 0
on T, -4 elsewhere).  Lowering it through the complementary factors
over the exponent box {0..4}^(n-3) yields a weight basis of its
irreducible summand; the union over all triples is a basis of the whole
module, of dimension C(n,3) * 5^(n-3).  The basis is built for
n <= MAX_BASIS_FACTORS only: at n = 7 each of the 35 triples gives about
600,000 terms (12 s on a 2-core x86 VM, Python 3.11), so the whole basis
would take about 7 minutes and 21 million terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .polynomials import TensorPolynomial, Weight
from .rep_theory import weight_basis

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
                         f" only, got n={n}")
    entries: list[BasisEntry] = []
    for triple in combinations(range(1, n + 1), 3):
        hwv = cayley_hyperdet(n, triple)
        complementary = [k for k in range(1, n + 1) if k not in triple]
        for vector in weight_basis(hwv):
            exps = tuple(vector.exponents[k - 1] for k in complementary)
            entries.append(BasisEntry(triple, exps, vector.polynomial, vector.weight))
    return ModuleBasis(n, tuple(entries))
