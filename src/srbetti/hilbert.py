"""Exact Hilbert series, multiplicity and the resolution identities.

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
from math import comb

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
    """The degree of the face ring, h(1): the sum of h."""
    return h.total()


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
