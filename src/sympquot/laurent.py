"""Laurent polynomials in one variable q with integer coefficients.

Used for weight-space characters restricted to the diagonal torus: the
coefficient of q^m is the dimension of the weight-m space.  Supports are
finite dicts; zero coefficients are never stored.
"""

from __future__ import annotations


class LaurentCharacter:
    """Finitely supported integer Laurent polynomial in q."""

    __slots__ = ("_c",)

    def __init__(self, coefficients=None):
        c = {}
        if coefficients:
            for m, v in dict(coefficients).items():
                if v != 0:
                    c[int(m)] = int(v)
        self._c = c

    def coeff(self, m):
        return self._c.get(m, 0)

    @property
    def support(self):
        return sorted(self._c)

    def items(self):
        return self._c.items()

    def is_zero(self):
        return not self._c

    def is_symmetric(self):
        """True when the coefficient of q^m equals that of q^-m for all m."""
        return all(self._c.get(-m, 0) == v for m, v in self._c.items())

    def __add__(self, other):
        c = dict(self._c)
        for m, v in other._c.items():
            c[m] = c.get(m, 0) + v
        return LaurentCharacter(c)

    def __sub__(self, other):
        c = dict(self._c)
        for m, v in other._c.items():
            c[m] = c.get(m, 0) - v
        return LaurentCharacter(c)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentCharacter({m: v * other for m, v in self._c.items()})
        c = {}
        for m1, v1 in self._c.items():
            for m2, v2 in other._c.items():
                k = m1 + m2
                c[k] = c.get(k, 0) + v1 * v2
        return LaurentCharacter(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentCharacter) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for m in self.support:
            v = self._c[m]
            if m == 0:
                term = str(abs(v))
            else:
                qm = "q" if m == 1 else f"q^{m}"
                term = qm if abs(v) == 1 else f"{abs(v)}*{qm}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)
