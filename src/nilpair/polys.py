"""Exact polynomial types: integer Laurent polynomials in (s, t) and
rational-coefficient polynomials in many variables."""

from __future__ import annotations

from .linalg import exact


class BivariatePoly:
    """Laurent polynomial in s, t with integer coefficients.

    Stored as a dict {(i, j): coeff} with no zero coefficients; exponents may
    be negative.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[(int(k[0]), int(k[1]))] = int(v)

    @staticmethod
    def zero():
        return BivariatePoly()

    @staticmethod
    def one():
        return BivariatePoly({(0, 0): 1})

    @staticmethod
    def term(i, j, c=1):
        return BivariatePoly({(i, j): c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return BivariatePoly(out)

    def __neg__(self):
        return BivariatePoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivariatePoly({k: v * other for k, v in self.coeffs.items()})
        out = {}
        for (a, b), u in self.coeffs.items():
            for (c, d), v in other.coeffs.items():
                k = (a + c, b + d)
                nv = out.get(k, 0) + u * v
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return BivariatePoly(out)

    def invert_vars(self):
        """Substitute s -> 1/s, t -> 1/t."""
        return BivariatePoly({(-i, -j): v for (i, j), v in self.coeffs.items()})

    def eval_ones(self):
        return sum(self.coeffs.values())

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in self.items_sorted():
            parts.append(f"{c}*s^{i}*t^{j}")
        return " + ".join(parts)

    def to_jsonable(self):
        return [[i, j, c] for (i, j), c in self.items_sorted()]


def prod_poly(polys):
    out = BivariatePoly.one()
    for p in polys:
        out = out * p
    return out


def one_minus(i, j):
    """1 - s^i t^j."""
    return BivariatePoly({(0, 0): 1}) - BivariatePoly({(i, j): 1})


class MultivariatePoly:
    """Polynomial over Q in a fixed number of variables.

    Stored as {exponent tuple: exact rational}: each coefficient passes
    through `linalg.exact`, so it is an int where it is integral and a
    Fraction otherwise, never a float.  No zero coefficients; exponents are
    non-negative.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                v = exact(v)
                if v:
                    self.coeffs[tuple(k)] = v

    @staticmethod
    def zero(nvars):
        return MultivariatePoly(nvars)

    @staticmethod
    def constant(nvars, c):
        return MultivariatePoly(nvars, {tuple([0] * nvars): c})

    @staticmethod
    def variable(nvars, i):
        e = [0] * nvars
        e[i] = 1
        return MultivariatePoly(nvars, {tuple(e): 1})

    @staticmethod
    def linear_form(coeffs):
        """Sum of coeffs[i] * x_i."""
        n = len(coeffs)
        out = {}
        for i, c in enumerate(coeffs):
            c = exact(c)
            if c:
                e = [0] * n
                e[i] = 1
                out[tuple(e)] = c
        return MultivariatePoly(n, out)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, MultivariatePoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            nv = out.get(k, 0) + v
            if nv:
                out[k] = nv
            else:
                del out[k]
        return MultivariatePoly(self.nvars, out)

    def __neg__(self):
        return MultivariatePoly(self.nvars, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = exact(c)
        return MultivariatePoly(self.nvars, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, MultivariatePoly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(k, 0) + c1 * c2
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return MultivariatePoly(self.nvars, out)

    def __pow__(self, k):
        out = MultivariatePoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def total_degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def permute_variables(self, perm):
        """Apply x_i -> x_{perm[i]}."""
        out = {}
        for e, c in self.coeffs.items():
            ne = [0] * self.nvars
            for i, a in enumerate(e):
                ne[perm[i]] += a
            out[tuple(ne)] = out.get(tuple(ne), 0) + c
        return MultivariatePoly(self.nvars, out)

    def diff(self, var, order=1):
        out = {}
        for e, c in self.coeffs.items():
            a = e[var]
            if a < order:
                continue
            f = 1
            for k in range(order):
                f *= a - k
            ne = list(e)
            ne[var] = a - order
            out[tuple(ne)] = out.get(tuple(ne), 0) + c * f
        return MultivariatePoly(self.nvars, out)

    def apply_diff_operator(self, op):
        """Apply op with each variable read as the matching partial derivative."""
        self._check(op)
        total = MultivariatePoly.zero(self.nvars)
        for e, c in op.coeffs.items():
            part = self
            for var, order in enumerate(e):
                if order:
                    part = part.diff(var, order)
                if not part:
                    break
            total = total + part.scale(c)
        return total

    def monomials_sorted(self):
        return sorted(self.coeffs.items())

    def to_jsonable(self):
        return [
            [list(e), v.numerator, v.denominator] for e, v in self.monomials_sorted()
        ]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*x^{e}" for e, c in self.monomials_sorted())
