"""Exact Hilbert series, Hilbert polynomials and the resolution identities.

All arithmetic is integer arithmetic on polynomial coefficient tuples; the
identities checked here are exact, so the tolerance everywhere is zero.
The Hilbert series of a face ring is h(z)/(1-z)^d, already in lowest terms
since h(1) = f_{d-1} > 0.  Over the common denominator (1-z)^n its numerator
is N(z) = (1-z)^(n-d) h(z) (`h_numerator`), and N equals the K-polynomial
sum_{i,j} (-1)^i beta_{i,j} z^j of any Betti table of the ring.  The series
identity, the closed-form Betti numbers and the h-relations of `formulas`
all read coefficients of this one polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .betti import BettiTable
from .simplicial import FVector, HVector, h_vector


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[k] multiplies z^k, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        if end != len(c):
            object.__setattr__(self, "coeffs", c[:end])

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial(tuple(-x for x in other.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def coeff(self, k: int) -> int:
        """[z^k], zero outside [0, degree]: a negative k never wraps around."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                body = str(abs(a))
            else:
                mag = "" if abs(a) == 1 else str(abs(a))
                body = f"{mag}z" if k == 1 else f"{mag}z^{k}"
            if not parts:
                parts.append(body if a > 0 else "-" + body)
            else:
                parts.append(("+ " if a > 0 else "- ") + body)
        return " ".join(parts)


def one_minus_z_pow(k: int) -> IntPolynomial:
    """(1-z)^k expanded by the binomial theorem."""
    if k < 0:
        raise ValueError("negative power")
    return IntPolynomial(tuple((-1) ** j * comb(k, j) for j in range(k + 1)))


def binom_int(m: int, k: int) -> int:
    """The binomial polynomial C(x, k) evaluated at an arbitrary integer x = m."""
    if k < 0:
        raise ValueError("negative lower index")
    if m >= 0:
        return comb(m, k)
    num = 1
    for t in range(k):
        num *= m - t
    return num // factorial(k)


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1-z)^pole_order in lowest terms with respect to (1-z)."""

    numerator: IntPolynomial
    pole_order: int

    def __post_init__(self):
        if self.pole_order < 0:
            raise ValueError("negative pole order")
        if not self.numerator.is_zero and self.pole_order > 0 and self.numerator.evaluate(1) == 0:
            raise ValueError("numerator still divisible by (1-z)")

    def __str__(self) -> str:
        num = f"({self.numerator})" if len(self.numerator.coeffs) > 1 else str(self.numerator)
        if self.pole_order == 0:
            return num
        den = "(1-z)" if self.pole_order == 1 else f"(1-z)^{self.pole_order}"
        return f"{num} / {den}"


def series_from_f(f: FVector) -> HilbertSeries:
    """Hilbert series of the face ring: h(z) / (1-z)^d, in lowest terms."""
    return HilbertSeries(IntPolynomial(h_vector(f).entries), f.d)


def multiplicity(h: HVector) -> int:
    """The normalized leading coefficient of the Hilbert polynomial: sum of h."""
    return h.total()


@dataclass(frozen=True)
class HilbertPolynomial:
    """Coefficients (m_0, ..., m_{d-1}) over the basis C(z, d-1), ..., C(z, 0).

    Empty for d = 0 (the zero polynomial of a finite-dimensional module).
    m_0 is the multiplicity whenever d >= 1.
    """

    binom_coeffs: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.binom_coeffs)

    @property
    def leading(self) -> int:
        return self.binom_coeffs[0] if self.binom_coeffs else 0

    def evaluate(self, s: int) -> int:
        d = self.d
        return sum(m * binom_int(s, d - 1 - j) for j, m in enumerate(self.binom_coeffs))


def hilbert_polynomial(h: HVector, d: int) -> HilbertPolynomial:
    """Expand sum h_i z^i / (1-z)^d into the falling binomial basis.

    The value at s >> 0 is sum_i h_i C(s - i + d - 1, d - 1); evaluating that
    at s = 0..d-1 and taking forward differences yields the basis
    coefficients.  d = 0 returns the empty (zero) polynomial.
    """
    if d < 0:
        raise ValueError("negative dimension")
    if d == 0:
        return HilbertPolynomial(())
    vals = [
        sum(h.get(i) * binom_int(s - i + d - 1, d - 1) for i in range(h.d + 1))
        for s in range(d)
    ]
    coeffs = [0] * d
    row = vals
    for r in range(d):
        coeffs[d - 1 - r] = row[0]
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return HilbertPolynomial(tuple(coeffs))


def h_numerator(h: HVector, n: int, d: int) -> IntPolynomial:
    """N(z) = (1-z)^(n-d) * sum h_i z^i, the series numerator over (1-z)^n."""
    return one_minus_z_pow(n - d) * IntPolynomial(h.entries)


def k_polynomial(table: BettiTable) -> IntPolynomial:
    """sum_{i,j} (-1)^i beta_{i,j} z^j over every cell of the table."""
    out = [0] * (table.max_j() + 1)
    for i, j, v in table.cells:
        out[j] += -v if i % 2 else v
    return IntPolynomial(tuple(out))


def verify_series_identity(h: HVector, n: int, d: int, table: BettiTable) -> IntPolynomial:
    """Residual N(z) minus the K-polynomial of the table.

    The zero polynomial iff the identity holds; it holds for every table
    shape, and for a pure shape it is the paper's numerator identity.
    """
    return h_numerator(h, n, d) - k_polynomial(table)
