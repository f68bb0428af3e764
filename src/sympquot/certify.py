"""Graded Gorenstein certification of Hilbert series.

For a Cohen-Macaulay graded domain R, the ring is Gorenstein exactly when
its Hilbert series satisfies H(1/t) = (-1)^d t^{-a} H(t) as rational
functions, with d the Krull dimension; the integer a is then the
a-invariant of R.  "Graded Gorenstein" additionally requires a = -d.

The functional equation is decided symbolically on the canonical reduced
representation: writing the reduced numerator as t^val * p(t) with
p(0) != 0, the equation holds iff reverse(p) == sigma * p with
sigma = (-1)^(d - #denominator factors), in which case
a = deg(numerator) + val - sum(denominator exponents).
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import HilbertSeries, vanishing_order_at_one

CM_UNKNOWN_CAVEAT = (
    "Cohen-Macaulay domain hypothesis not guaranteed by the caller; "
    "the functional equation alone does not certify Gorenstein-ness"
)
CM_FAILS_CAVEAT = (
    "the ring is known not to be Cohen-Macaulay; the functional equation "
    "is reported for the series only and certifies nothing"
)


@dataclass(frozen=True)
class GorensteinVerdict:
    """Outcome of the functional-equation check on one Hilbert series.

    a_invariant is None when the functional equation fails (no integer a
    makes it hold).  ``caveat`` is None only when the caller vouched for
    the Cohen-Macaulay domain hypotheses.
    """

    dimension: int
    a_invariant: int | None
    functional_equation_holds: bool
    graded_gorenstein: bool
    caveat: str | None = None

    def __post_init__(self):
        if self.graded_gorenstein and not (
            self.functional_equation_holds and self.a_invariant == -self.dimension
        ):
            raise RuntimeError(
                "graded Gorenstein verdict without the functional equation "
                f"at a = -dim (a = {self.a_invariant}, dim = {self.dimension}); "
                "please report this input"
            )

    def summary(self):
        if not self.functional_equation_holds:
            return "functional equation fails; not graded Gorenstein"
        text = (
            f"functional equation holds with a = {self.a_invariant}; "
            f"graded Gorenstein = {self.graded_gorenstein}"
        )
        if self.caveat:
            text += f" [caveat: {self.caveat}]"
        return text


def stanley_check(H: HilbertSeries, *, cohen_macaulay_domain=None) -> GorensteinVerdict:
    """Decide the Gorenstein functional equation for a Hilbert series.

    Args:
        H: nonzero Hilbert series with non-negative expansion coefficients
           (caller's responsibility).
        cohen_macaulay_domain: True when the caller can guarantee the
           Cohen-Macaulay domain hypotheses, False when they are known to
           fail, None when unknown.  Anything but True sets the caveat.

    The verdict is invariant under multiplying numerator and denominator
    by a common (1 - t^e) factor, since everything is computed from the
    canonical reduced representation.
    """
    if not H.numerator:
        raise ValueError("the zero series cannot be certified")
    c = H.canonical()
    num, den = c.numerator, c.denominator
    val = next(k for k, a in enumerate(num) if a != 0)
    p = num[val:]
    d = len(den) - vanishing_order_at_one(num)
    sigma = -1 if (d - len(den)) % 2 else 1
    holds = tuple(reversed(p)) == tuple(sigma * a for a in p)
    a = (len(num) - 1 + val - sum(den)) if holds else None

    if cohen_macaulay_domain is True:
        caveat = None
    elif cohen_macaulay_domain is False:
        caveat = CM_FAILS_CAVEAT
    else:
        caveat = CM_UNKNOWN_CAVEAT

    return GorensteinVerdict(
        dimension=d,
        a_invariant=a,
        functional_equation_holds=holds,
        graded_gorenstein=bool(holds and a == -d),
        caveat=caveat,
    )


def shell_a_invariant(ell, n):
    """a-invariant 2*ell - 2*n of the shell cut out by ell quadratics in
    a 2n-dimensional space (complete-intersection bookkeeping)."""
    if ell < 0 or n < 0:
        raise ValueError("rank and dimension must be non-negative")
    return 2 * ell - 2 * n
