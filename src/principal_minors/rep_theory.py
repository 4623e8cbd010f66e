"""Symmetric-group characters, multiplicities, and weight-space tools.

Characters come from the Murnaghan-Nakayama rule over beta-numbers;
multiplicities of tensor products of Schur modules inside symmetric
powers are class-size-weighted character sums.  The lowering machinery
turns a single highest weight polynomial into a full weight basis of
its irreducible module.  Multiplicities take at most MAX_FACTORS
partitions of size at most MAX_PARTITION_SIZE, and a decomposition at
most MAX_FACTORS factors and MAX_CHARACTER_PRODUCTS character products;
beyond them a ValueError is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from .polynomials import (
    MAX_FACTORS,
    TensorPolynomial,
    Weight,
    is_highest_weight,
    lower,
    weight_of,
)
from .scalars import excerpt, scalar_from_str

# Bounds on the work of one call, each a few tenths of a second at most
# on a 2-core x86 VM with Python 3.11.  The characters of one partition
# of 24 take about 0.1 s (the cost grows with the partition count p(d)),
# and decompose_symmetric_power multiplies n characters for each of the
# p(d) cycle types of each of its (d//2 + 1)^n partition tuples.  A
# multiplicity of MAX_FACTORS partitions of 24 prints about 130 digits.
MAX_PARTITION_SIZE = 24
MAX_CHARACTER_PRODUCTS = 10 ** 5


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Comma-separated parts of ASCII digits, as scalar_from_str reads."""
        parts = text.split(",")
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError("parts must be nonempty ASCII digits")
        return cls(tuple(scalar_from_str(part) for part in parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def partitions_of(d: int) -> Iterator[tuple[int, ...]]:
    """All partitions of d as weakly decreasing tuples (d >= 0)."""

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(d, d)


def two_row_partitions(d: int) -> list[Partition]:
    """Partitions of d with at most two rows, largest first part first."""
    out = []
    for second in range(0, d // 2 + 1):
        first = d - second
        out.append(Partition((first,) if second == 0 else (first, second)))
    return out


@lru_cache(maxsize=None)
def _mn(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1 if not parts else 0
    strip = cycles[0]
    rest = cycles[1:]
    m = len(parts)
    beta = [parts[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        target = b - strip
        if target < 0 or target in beta_set:
            continue
        crossed = sum(1 for other in beta if target < other < b)
        new_beta = sorted((beta[j] if j != i else target) for j in range(m))
        new_parts = tuple(
            nb - pos for pos, nb in enumerate(new_beta) if nb - pos > 0
        )[::-1]
        total += (-1) ** crossed * _mn(new_parts, rest)
    return total


def character(pi: Partition, lam: Partition) -> int:
    """Irreducible character of S_d evaluated on the class of cycle type lam."""
    if pi.size != lam.size:
        raise ValueError(f"sizes differ: |pi|={pi.size}, |lam|={lam.size}")
    return _mn(tuple(pi.parts), tuple(lam.parts))


def cycle_type_class_size(lam: Partition) -> int:
    """Number of permutations with the given cycle type: d! / z_lam."""
    z = 1
    mult: dict[int, int] = {}
    for part in lam.parts:
        mult[part] = mult.get(part, 0) + 1
    for length, count in mult.items():
        z *= length**count * factorial(count)
    return factorial(lam.size) // z


def invariant_dim(partitions: Sequence[Partition]) -> int:
    """Multiplicity of the tensor product of Schur modules S_pi_1 ... S_pi_n
    inside the degree-d symmetric power: (1/d!) sum over S_d of the
    product of characters, computed over cycle types with class sizes."""
    if not partitions:
        raise ValueError("need at least one partition")
    if len(partitions) > MAX_FACTORS:
        raise ValueError(f"at most {MAX_FACTORS} partitions only, got {len(partitions)}")
    d = partitions[0].size
    if any(p.size != d for p in partitions):
        raise ValueError("all partitions must have the same size")
    if d > MAX_PARTITION_SIZE:
        raise ValueError(f"partitions of size at most {MAX_PARTITION_SIZE} only, got {excerpt(d)}")
    total = 0
    for lam_parts in partitions_of(d):
        lam = Partition(lam_parts)
        weight = cycle_type_class_size(lam)
        prod_chi = 1
        for pi in partitions:
            prod_chi *= character(pi, lam)
            if prod_chi == 0:
                break
        total += weight * prod_chi
    if total % factorial(d):
        raise ArithmeticError("character sum is not divisible by d!")
    return total // factorial(d)


@dataclass(frozen=True)
class IsotypicSummand:
    partitions: tuple[Partition, ...]
    multiplicity: int

    @property
    def ambiguous(self) -> bool:
        """Degree + weight underdetermine the embedding when the summand
        occurs with multiplicity > 1."""
        return self.multiplicity > 1


def decompose_symmetric_power(d: int, n: int) -> list[IsotypicSummand]:
    """All n-tuples of at-most-two-row partitions of d that occur in the
    degree-d symmetric power of the n-fold tensor product, with their
    multiplicities."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if d > MAX_PARTITION_SIZE:
        raise ValueError(f"partitions of size at most {MAX_PARTITION_SIZE} only,"
                         f" got d={excerpt(d)}")
    rows = two_row_partitions(d)
    if (n > MAX_FACTORS or len(rows) ** n * n * sum(1 for _ in partitions_of(d))
            > MAX_CHARACTER_PRODUCTS):
        raise ValueError(f"decomposing is bounded at n <= {MAX_FACTORS} factors and"
                         f" (d//2 + 1)^n * n * p(d) <= {MAX_CHARACTER_PRODUCTS} character"
                         f" products, got d={excerpt(d)}, n={excerpt(n)}")
    out = []
    for combo in product(rows, repeat=n):
        mult = invariant_dim(combo)
        if mult > 0:
            out.append(IsotypicSummand(tuple(combo), mult))
    return out


def sl2_dim(pi: Partition) -> int:
    """Dimension of the Schur module of a 2-dimensional space: p1 - p2 + 1."""
    if len(pi) > 2:
        raise ValueError("at most two parts for a 2-dimensional factor")
    second = pi.parts[1] if len(pi) == 2 else 0
    return pi.parts[0] - second + 1


def identify_isotypic(d: int, weight: Weight) -> IsotypicSummand:
    """Per-factor partitions ((d - w_i)/2, (d + w_i)/2) of the isotypic
    component containing a highest weight vector of the given degree and
    weight.  Callers holding a lowest weight must negate it first."""
    parts = []
    for w in weight:
        if (d + w) % 2:
            raise ValueError(f"parity violation: d={d}, weight component {w}")
        if abs(w) > d:
            raise ValueError(f"|weight component| {w} exceeds degree {d}")
        if w > 0:
            raise ValueError(
                f"weight component {w} > 0 is not a highest weight here; "
                "negate a lowest weight before identifying"
            )
        first, second = (d - w) // 2, (d + w) // 2
        parts.append(Partition((first,) if second == 0 else (first, second)))
    partitions = tuple(parts)
    return IsotypicSummand(partitions, invariant_dim(partitions))


def lower_to_lowest(poly: TensorPolynomial) -> tuple[TensorPolynomial, Weight]:
    """Apply each factor's lowering operator as many times as possible,
    factor 1 through factor n; the result is annihilated by every
    lowering operator."""
    if poly.is_zero():
        raise ValueError("zero polynomial")
    current = poly
    for factor in range(1, poly.n + 1):
        while True:
            lowered = lower(current, factor)
            if lowered.is_zero():
                break
            current = lowered
    return current, weight_of(current)


class WeightBasisVector(NamedTuple):
    exponents: tuple[int, ...]
    polynomial: TensorPolynomial
    weight: Weight


def weight_basis(hwv: TensorPolynomial) -> list[WeightBasisVector]:
    """All nonzero normalized images lower_n^(e_n) ... lower_1^(e_1)(hwv)
    with e_k ranging over 0..m_k, in odometer order (last factor
    fastest).  The input must be a highest weight vector; of weight -m_k
    in factor k, it lowers exactly m_k times there."""
    if not is_highest_weight(hwv):
        raise ValueError("input is not a highest weight vector (raising does not annihilate)")
    # Each lowering in factor k adds 2 to weight component k.
    top = weight_of(hwv)
    out: list[WeightBasisVector] = []

    def descend(factor: int, exponents: tuple[int, ...], poly: TensorPolynomial):
        if factor > hwv.n:
            weight = tuple(w + 2 * e for w, e in zip(top, exponents))
            out.append(WeightBasisVector(exponents, poly.normalized(), weight))
            return
        current = poly
        for e in range(-top[factor - 1] + 1):
            if e > 0:
                current = lower(current, factor)
                if current.is_zero():
                    break
            descend(factor + 1, exponents + (e,), current)

    descend(1, (), hwv)
    return out
