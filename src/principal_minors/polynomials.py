"""Sparse polynomials in the 2^n tensor coordinates X^I.

Weight convention (fixed throughout): the basis vector x^0 of each
factor carries weight -1 and x^1 carries weight +1, so the variable X^I
contributes +1 to weight component k when i_k = 1 and -1 otherwise.
The lowering derivation in factor k sends X^(i_k=0) to X^(i_k=1) and
X^(i_k=1) to 0 (scalar fixed to 1), hence raises weight component k by
2; raising is the transpose.  Under this convention highest weight
vectors carry the numerically smallest weights.

A monomial is packed into a single int, its key: one 16-bit field per
factor, repeats included, in ascending encoding order from the most
significant field down.  A field holds enc + 1, with the REPEAT bit
set when it repeats the field above it, so X[0]^2 * X[5] is the fields
(1, REPEAT | 1, 6), every monomial has exactly one key and the degree
is the field count.  Integer order on keys is graded-lex order (the
degree, then the (encoding, exponent) pairs by ascending encoding):
more fields make a larger int, and a repeat field beats one that opens
a new encoding, as a larger exponent does.  n is at most MAX_FACTORS =
14, so enc + 1 fits below REPEAT; exponents are unbounded.  The layout
is read and written only in this module: by pack_monomial and
unpack_monomial, and in place by terms(), evaluate and the factor
relabel of act, the one S_n move on polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .indices import BinaryIndex, MinorVector
from .scalars import Scalar, as_scalar, normalize

FIELD_BITS = 16
REPEAT = 1 << (FIELD_BITS - 1)
FIELD_MASK = REPEAT - 1  # a field's enc + 1, without its REPEAT bit
MAX_FACTORS = 14

Weight = tuple[int, ...]


def _check_factor_count(n: int) -> None:
    if not 1 <= n <= MAX_FACTORS:
        raise ValueError(f"factor count must be in 1..{MAX_FACTORS}")


def pack_monomial(encodings: Iterable[int]) -> int:
    """The key of the monomial with these factor encodings, in any order."""
    key = previous = 0
    for enc in sorted(encodings):
        key = key << FIELD_BITS | enc + 1 | (REPEAT if enc + 1 == previous else 0)
        previous = enc + 1
    return key


def unpack_monomial(key: int) -> list[int]:
    """The factor encodings of a key, ascending with repeats."""
    encodings = []
    while key:
        encodings.append((key & FIELD_MASK) - 1)
        key >>= FIELD_BITS
    encodings.reverse()
    return encodings


class TensorPolynomial:
    """Immutable sparse polynomial with exact coefficients.

    Terms map packed monomials to nonzero scalars; the empty monomial
    (key 0) is the constant slot.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[int, Scalar] | None = None):
        _check_factor_count(n)
        object.__setattr__(self, "n", n)
        clean: dict[int, Scalar] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = normalize(coeff) if type(coeff) is Fraction else coeff
                if coeff != 0:
                    clean[key] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPolynomial is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TensorPolynomial":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "TensorPolynomial":
        return cls(n, {pack_monomial([]): as_scalar(value)})

    @classmethod
    def variable(cls, n: int, index: "BinaryIndex | int") -> "TensorPolynomial":
        enc = index.encoding if isinstance(index, BinaryIndex) else index
        if not 0 <= enc < (1 << n):
            raise ValueError(f"encoding {enc} out of range for n={n}")
        return cls(n, {pack_monomial([enc]): 1})

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[Iterable[tuple[int, int]], Scalar]]
                   ) -> "TensorPolynomial":
        """The sum of coeff * prod (X^enc)^exp over each term's (encoding,
        exponent) pairs; one encoding may appear in several pairs."""
        _check_factor_count(n)  # before 1 << n, which a huge n cannot build
        size = 1 << n
        acc: dict[int, Scalar] = {}
        for pairs, coeff in terms:
            encodings = []
            for enc, exp in pairs:
                if not 0 <= enc < size:
                    raise ValueError(f"encoding {enc} out of range for n={n}")
                if exp < 1:
                    raise ValueError(f"exponent {exp} must be at least 1")
                encodings += [enc] * exp
            key = pack_monomial(encodings)
            acc[key] = acc.get(key, 0) + as_scalar(coeff)
        return cls(n, acc)

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return len(unpack_monomial(max(self._terms, default=0)))

    def is_homogeneous(self) -> bool:
        degrees = {len(unpack_monomial(k)) for k in self._terms}
        return len(degrees) <= 1

    def terms(self) -> Iterator[tuple[tuple[tuple[int, int], ...], Scalar]]:
        """(encoding, exponent) pairs and coefficients in graded-lex order,
        which is the keys' integer order."""
        for key in sorted(self._terms):
            coeff = self._terms[key]
            # from the lowest field up: a repeat field raises the exponent
            # of the field that opens its run, which lies above it
            pairs = []
            exp = 1
            while key:
                if key & REPEAT:
                    exp += 1
                else:
                    pairs.append(((key & FIELD_MASK) - 1, exp))
                    exp = 1
                key >>= FIELD_BITS
            pairs.reverse()
            yield tuple(pairs), coeff

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorPolynomial)
                and self.n == other.n and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for pairs, coeff in self.terms():
            factors = "*".join(
                f"X{BinaryIndex.from_encoding(self.n, enc)}" + (f"^{e}" if e > 1 else "")
                for enc, e in pairs
            )
            parts.append(f"{coeff}" if not factors else f"{coeff}*{factors}")
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------

    def _check_same_space(self, other: "TensorPolynomial"):
        if self.n != other.n:
            raise ValueError(f"factor counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        self._check_same_space(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, 0) + coeff
        return TensorPolynomial(self.n, acc)

    def __neg__(self) -> "TensorPolynomial":
        return TensorPolynomial(self.n, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "TensorPolynomial") -> "TensorPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "TensorPolynomial":
        if isinstance(other, TensorPolynomial):
            self._check_same_space(other)
            acc: dict[int, Scalar] = {}
            right = [(unpack_monomial(k2), c2) for k2, c2 in other._terms.items()]
            for k1, c1 in self._terms.items():
                left = unpack_monomial(k1)
                for encodings, c2 in right:
                    key = pack_monomial(left + encodings)
                    acc[key] = acc.get(key, 0) + c1 * c2
            return TensorPolynomial(self.n, acc)
        scalar = as_scalar(other)
        return TensorPolynomial(self.n, {k: scalar * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TensorPolynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = TensorPolynomial.constant(self.n, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- normalization -----------------------------------------------

    def content(self) -> Scalar:
        """The signed content: the positive rational c with coprime integer
        coefficients in self / c, signed as the graded-lex leading
        coefficient; 1 for the zero polynomial."""
        if self.is_zero():
            return 1
        coeffs = self._terms.values()
        denom = lcm(*(c.denominator for c in coeffs))
        content = gcd(*coeffs) if denom == 1 else Fraction(
            gcd(*(c.numerator * (denom // c.denominator) for c in coeffs)), denom)
        return -content if self._terms[max(self._terms)] < 0 else content

    def normalized(self) -> "TensorPolynomial":
        """self / content(): integer content 1 and a positive graded-lex
        leading coefficient, computed in integers."""
        content = self.content()
        if content == 1:
            return self
        num, den = content.numerator, content.denominator
        return TensorPolynomial(self.n, {k: c * den // num for k, c in self._terms.items()})


def evaluate(poly: TensorPolynomial, point: "MinorVector | Sequence[Scalar]") -> Scalar:
    """Substitute point coordinates for the variables X^I, exactly."""
    if isinstance(point, MinorVector):
        if point.n != poly.n:
            raise ValueError(f"point has n={point.n}, polynomial has n={poly.n}")
        values = point.coords
    else:
        values = tuple(point)
        if len(values) != (1 << poly.n):
            raise ValueError(f"expected {1 << poly.n} coordinates")
    # A field holds enc + 1, so it indexes the values shifted by one.
    values = (0,) + values
    total: Scalar = 0
    # Keys are read field by field in place, not unpacked into lists.
    for key, coeff in poly._terms.items():
        term = coeff
        while key:
            term = term * values[key & FIELD_MASK]
            key >>= FIELD_BITS
        total = total + term
    return normalize(total)


def monomial_weight(key: int, n: int) -> Weight:
    w = [0] * n
    for enc in unpack_monomial(key):
        for k in range(n):
            w[k] += 1 if (enc >> k) & 1 else -1
    return tuple(w)


def weight_of(poly: TensorPolynomial) -> Weight:
    """The common weight of all monomials; error if they disagree."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no weight")
    weight = None
    for key in poly._terms:
        w = monomial_weight(key, poly.n)
        if weight is None:
            weight = w
        elif w != weight:
            raise ValueError(f"not a weight vector: monomial weights {weight} and {w} differ")
    return weight


def _derivation(poly: TensorPolynomial, factor: int, from_bit: int) -> TensorPolynomial:
    # Leibniz extension of the variable map X^(i_k=from) -> X^(i_k flipped),
    # X^(i_k=1-from) -> 0.
    if not 1 <= factor <= poly.n:
        raise ValueError(f"factor {factor} out of range 1..{poly.n}")
    bit = 1 << (factor - 1)
    match = bit if from_bit else 0
    acc: dict[int, Scalar] = {}
    for key, coeff in poly._terms.items():
        encodings = unpack_monomial(key)
        for pos, enc in enumerate(encodings):
            if (enc & bit) == match:
                new_key = pack_monomial(encodings[:pos] + [enc ^ bit] + encodings[pos + 1:])
                acc[new_key] = acc.get(new_key, 0) + coeff
    return TensorPolynomial(poly.n, acc)


def lower(poly: TensorPolynomial, factor: int) -> TensorPolynomial:
    """Lowering derivation in one factor; adds 2 to that weight component."""
    return _derivation(poly, factor, from_bit=0)


def raise_(poly: TensorPolynomial, factor: int) -> TensorPolynomial:
    """Raising derivation in one factor; subtracts 2 from that weight component."""
    return _derivation(poly, factor, from_bit=1)


def is_highest_weight(poly: TensorPolynomial) -> bool:
    return not poly.is_zero() and all(raise_(poly, k).is_zero() for k in range(1, poly.n + 1))


# -- group action ----------------------------------------------------

Matrix2 = tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
_EYE: Matrix2 = ((1, 0), (0, 1))


def _det2(m: Matrix2) -> Scalar:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inv2(m: Matrix2) -> Matrix2:
    d = Fraction(_det2(m))
    if d == 0:
        raise ValueError("singular factor matrix")
    return (
        (normalize(m[1][1] / d), normalize(-m[0][1] / d)),
        (normalize(-m[1][0] / d), normalize(m[0][0] / d)),
    )


@dataclass(frozen=True)
class GroupElement:
    """One 2x2 invertible matrix per factor plus a factor permutation.

    The permutation is stored 0-based: factor i moves to permutation[i].
    """

    n: int
    factor_matrices: tuple[Matrix2, ...]
    permutation: tuple[int, ...]

    def __post_init__(self):
        if len(self.factor_matrices) != self.n:
            raise ValueError("need one 2x2 matrix per factor")
        for m in self.factor_matrices:
            if _det2(m) == 0:
                raise ValueError("singular factor matrix")
        if sorted(self.permutation) != list(range(self.n)):
            raise ValueError("permutation must be a bijection of 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(n, (_EYE,) * n, tuple(range(n)))

    @classmethod
    def from_matrices(cls, matrices: Sequence[Matrix2]) -> "GroupElement":
        n = len(matrices)
        mats = tuple(tuple(tuple(as_scalar(v) for v in row) for row in m) for m in matrices)
        return cls(n, mats, tuple(range(n)))

    @classmethod
    def from_permutation(cls, n: int, permutation: Sequence[int]) -> "GroupElement":
        return cls(n, (_EYE,) * n, tuple(permutation))


def _moves(permutation: Sequence[int]) -> list[int]:
    """moves[enc] is enc with bit k moved to bit permutation[k], built by
    doubling: each step appends the table so far with the next image bit set."""
    moves = [0]
    for image in permutation:
        moves += [enc | 1 << image for enc in moves]
    return moves


def act_point(g: GroupElement, z: MinorVector) -> MinorVector:
    """Apply each factor matrix by contraction, then permute factors."""
    if g.n != z.n:
        raise ValueError(f"group element has n={g.n}, point has n={z.n}")
    coords = list(z.coords)
    size = 1 << z.n
    for k in range(z.n):
        m = g.factor_matrices[k]
        bit = 1 << k
        for enc in range(size):
            if enc & bit:
                continue
            lo, hi = coords[enc], coords[enc | bit]
            coords[enc] = m[0][0] * lo + m[0][1] * hi
            coords[enc | bit] = m[1][0] * lo + m[1][1] * hi
    if g.permutation != tuple(range(z.n)):
        moved = dict(zip(_moves(g.permutation), coords))  # coordinate enc goes to moves[enc]
        coords = [moved[enc] for enc in range(size)]
    return MinorVector(z.n, tuple(normalize(c) if type(c) is Fraction else c
                                  for c in coords))


def _substitute(poly: TensorPolynomial, n: int,
                forms: Sequence[Sequence[tuple[int, Scalar]]]) -> TensorPolynomial:
    """Replace each variable X^enc by the linear form sum of c * X^e over
    the (e, c) pairs in forms[enc], expand, and return the result as a
    polynomial on n factors."""
    acc: dict[int, Scalar] = {}
    for key, coeff in poly._terms.items():
        # partial products merge by their sorted encodings at every step,
        # so X^d under a 2-term form keeps d + 1 entries, not 2^d
        partial: dict[tuple[int, ...], Scalar] = {(): coeff}
        for enc in unpack_monomial(key):
            nxt: dict[tuple[int, ...], Scalar] = {}
            for encodings, pc in partial.items():
                for target, c in forms[enc]:
                    if c != 0:
                        merged = tuple(sorted(encodings + (target,)))
                        nxt[merged] = nxt.get(merged, 0) + pc * c
            partial = nxt
        for encodings, mc in partial.items():
            mk = pack_monomial(encodings)
            acc[mk] = acc.get(mk, 0) + mc
    return TensorPolynomial(n, acc)


def apply_factor_matrix(poly: TensorPolynomial, factor: int, m: Matrix2) -> TensorPolynomial:
    """Substitute X^(i_k=b) -> m[b][0] X^(i_k=0) + m[b][1] X^(i_k=1)."""
    if not 1 <= factor <= poly.n:
        raise ValueError(f"factor {factor} out of range 1..{poly.n}")
    bit = 1 << (factor - 1)
    forms = [tuple(zip((enc & ~bit, enc | bit), m[1 if enc & bit else 0]))
             for enc in range(1 << poly.n)]
    return _substitute(poly, poly.n, forms)


def act(g: GroupElement, poly: TensorPolynomial) -> TensorPolynomial:
    """Dual action on polynomials: evaluate(act(g,p), act_point(g,z)) ==
    evaluate(p, z) for every p and z.  Identity factor matrices are
    skipped, and the permutation is one relabel of the keys."""
    if g.n != poly.n:
        raise ValueError(f"group element has n={g.n}, polynomial has n={poly.n}")
    out = poly
    for k, m in enumerate(g.factor_matrices, 1):
        if m != _EYE:
            out = apply_factor_matrix(out, k, _inv2(m))
    if g.permutation != tuple(range(g.n)):
        # X^enc -> X^moves[enc]: each key's fields are mapped, sorted and repacked
        table = [0] + [enc + 1 for enc in _moves(g.permutation)]
        terms: dict[int, Scalar] = {}
        for key, coeff in out._terms.items():
            fields = []
            while key:
                fields.append(table[key & FIELD_MASK])
                key >>= FIELD_BITS
            fields.sort()
            key = previous = 0
            for field in fields:
                key = key << FIELD_BITS | (field | REPEAT if field == previous else field)
                previous = field
            terms[key] = coeff
        out = TensorPolynomial(g.n, terms)
    return out


# -- polarization ----------------------------------------------------

def polarize_eval(poly: TensorPolynomial, vectors: Sequence[MinorVector]) -> Scalar:
    """The symmetric multilinear form attached to a degree-d polynomial,
    evaluated on d vectors.

    Convention: group the inputs into distinct vectors w_1..w_k with
    multiplicities beta and return the coefficient of t^beta in
    p(t_1 w_1 + ... + t_k w_k).  On pairwise-distinct inputs this is the
    plain coefficient of t_1...t_d; on d equal inputs it equals the
    direct evaluation p(v), with no stray d! factor.

    The coefficient is a mixed finite difference at t = 0:
    (1/beta!) sum_{c <= beta} (-1)^(|beta|-|c|) prod_j C(beta_j, c_j)
    p(sum_j c_j w_j).  The difference of t^alpha vanishes unless
    alpha >= beta componentwise, and p(sum t_j w_j) has total degree
    <= d = |beta|, so only t^beta survives; d = 0 gives p(0).
    """
    d = poly.degree()
    if len(vectors) != d:
        raise ValueError(f"need exactly {d} vectors, got {len(vectors)}")
    for v in vectors:
        if v.n != poly.n:
            raise ValueError("vector factor count mismatch")
    distinct: list[tuple[Scalar, ...]] = []
    counts: list[int] = []
    for v in vectors:
        if v.coords in distinct:
            counts[distinct.index(v.coords)] += 1
        else:
            distinct.append(v.coords)
            counts.append(1)
    total: Scalar = 0
    for c in product(*(range(b + 1) for b in counts)):
        weight = prod(comb(b, k) for b, k in zip(counts, c))
        point = [sum(k * w[i] for k, w in zip(c, distinct)) for i in range(1 << poly.n)]
        total += (-1) ** (d - sum(c)) * weight * evaluate(poly, point)
    return normalize(Fraction(total, prod(factorial(b) for b in counts)))


def linear_subspace_vanishes(poly: TensorPolynomial, basis: Sequence[MinorVector]) -> bool:
    """True iff the polarization vanishes on every multiset of size d
    drawn from the basis, i.e. iff poly vanishes on the whole span."""
    if not basis:
        raise ValueError("basis must be nonempty")
    d = poly.degree()
    for combo in combinations_with_replacement(basis, d):
        if polarize_eval(poly, list(combo)) != 0:
            return False
    return True


def split_by_top_variable(poly: TensorPolynomial
                          ) -> tuple[TensorPolynomial, TensorPolynomial, TensorPolynomial]:
    """Write poly = a * (X^[1..1])^2 + b * X^[1..1] + c with a, b, c free
    of the top variable.  Errors if the top degree exceeds 2."""
    top = (1 << poly.n) - 1
    buckets: list[dict[int, Scalar]] = [{}, {}, {}]
    for key, coeff in poly._terms.items():
        encodings = unpack_monomial(key)
        rest = [enc for enc in encodings if enc != top]
        e = len(encodings) - len(rest)
        if e > 2:
            raise ValueError(f"degree {e} > 2 in the top variable")
        stripped = pack_monomial(rest)
        bucket = buckets[e]
        bucket[stripped] = bucket.get(stripped, 0) + coeff
    c, b, a = (TensorPolynomial(poly.n, bk) for bk in buckets)
    return a, b, c


def augment(poly: TensorPolynomial, gamma: tuple[Scalar, Scalar]) -> TensorPolynomial:
    """Append a factor contracted against the linear form gamma:
    X^I -> gamma[0] X^(I,0) + gamma[1] X^(I,1).  With gamma = (1, 0) this
    re-expresses poly on n+1 factors with a trailing zero bit."""
    g0, g1 = as_scalar(gamma[0]), as_scalar(gamma[1])
    new_bit = 1 << poly.n
    forms = [((enc, g0), (enc | new_bit, g1)) for enc in range(1 << poly.n)]
    return _substitute(poly, poly.n + 1, forms)
