"""The monomial/posynomial object algebra, kept as the oracle of the array
model: gp.Factors and power_control's array posynomials are checked against
it term by term, and the small hand-built GPs of the tests are written in
it and converted with factors() or program().
"""

import math
from dataclasses import dataclass, field

import numpy as np

from mimo_d2d.gp import Factors, GeometricProgram


def _clean_exponents(exponents):
    out = {}
    for var, exp in exponents.items():
        e = float(exp)
        if not math.isfinite(e):
            raise ValueError(f"non-finite exponent for {var}")
        if e != 0.0:
            out[str(var)] = e
    return out


@dataclass(frozen=True)
class Monomial:
    """coeff * prod(var ** exponent); coeff must be positive and finite."""

    coeff: float
    exponents: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and self.coeff > 0.0):
            raise ValueError("monomial coefficient must be positive and finite")
        object.__setattr__(self, "exponents", _clean_exponents(self.exponents))

    def value(self, point):
        v = self.coeff
        for var, exp in self.exponents.items():
            v *= point[var] ** exp
        return v

    def __mul__(self, other):
        if isinstance(other, Monomial):
            exps = dict(self.exponents)
            for var, exp in other.exponents.items():
                exps[var] = exps.get(var, 0.0) + exp
            return Monomial(self.coeff * other.coeff, exps)
        if isinstance(other, (int, float)):
            return Monomial(self.coeff * other, self.exponents)
        if isinstance(other, Posynomial):
            return other * self
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Monomial):
            return self * other ** -1.0
        if isinstance(other, (int, float)):
            return Monomial(self.coeff / other, self.exponents)
        return NotImplemented

    def __pow__(self, power):
        power = float(power)
        return Monomial(self.coeff ** power,
                        {v: e * power for v, e in self.exponents.items()})

    def __add__(self, other):
        return Posynomial([self]) + other

    __radd__ = __add__


def variable(name) -> Monomial:
    return Monomial(1.0, {name: 1.0})


class Posynomial:
    """Sum of monomials; closed under addition, multiplication and division
    by a monomial. Anything that would produce a negative coefficient (a
    signomial) is rejected by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(t if isinstance(t, Monomial) else Monomial(float(t)) for t in terms)
        if not terms:
            raise ValueError("posynomial needs at least one term")
        self.terms = terms

    def value(self, point):
        return sum(t.value(point) for t in self.terms)

    def variables(self):
        out = set()
        for t in self.terms:
            out.update(t.exponents)
        return out

    def __add__(self, other):
        if isinstance(other, Posynomial):
            return Posynomial(self.terms + other.terms)
        if isinstance(other, Monomial):
            return Posynomial(self.terms + (other,))
        if isinstance(other, (int, float)):
            if other == 0:
                return self
            return Posynomial(self.terms + (Monomial(float(other)),))
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Posynomial):
            return Posynomial([a * b for a in self.terms for b in other.terms])
        if isinstance(other, (Monomial, int, float)):
            return Posynomial([t * other for t in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Monomial, int, float)):
            return Posynomial([t / other for t in self.terms])
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"Posynomial({len(self.terms)} terms over {sorted(self.variables())})"


def as_posynomial(obj) -> Posynomial:
    if isinstance(obj, Posynomial):
        return obj
    if isinstance(obj, Monomial):
        return Posynomial([obj])
    if isinstance(obj, (int, float)):
        return Posynomial([Monomial(float(obj))])
    raise TypeError(f"cannot interpret {type(obj)} as a posynomial")


def monomial_lower_bound(f: Posynomial, x0: dict) -> Monomial:
    """Best local monomial under-approximation of posynomial f at the
    positive point x0: weights are each term's share of f(x0), giving a
    bound that touches f at x0 with matching gradient."""
    f = as_posynomial(f)
    if any(v <= 0.0 for v in x0.values()):
        raise ValueError("expansion point must be strictly positive")
    u = np.array([t.value(x0) for t in f.terms])
    total = u.sum()
    weights = u / total
    coeff = 1.0
    exps = {}
    for t, q, uj in zip(f.terms, weights, u):
        coeff *= (uj / q) ** q if q > 0 else 1.0
        for var, e in t.exponents.items():
            exps[var] = exps.get(var, 0.0) + q * e
    # the coefficient above is prod((u_j/Q_j)^{Q_j}) evaluated at x0; divide
    # out x0's contribution to keep only the true monomial coefficient
    for var, e in exps.items():
        coeff /= x0[var] ** e
    return Monomial(coeff, exps)


def factors(posys) -> Factors:
    """The Factors of a list of posynomials, term for term: each term's log
    coefficient is math.log of its coefficient."""
    index, ptr, log_coeff, term, var, exp = {}, [0], [], [], [], []
    for posy in posys:
        for t in as_posynomial(posy).terms:
            for name, e in t.exponents.items():
                term.append(len(log_coeff))
                var.append(index.setdefault(name, len(index)))
                exp.append(e)
            log_coeff.append(math.log(t.coeff))
        ptr.append(len(log_coeff))
    return Factors(ptr, log_coeff, term, var, exp, tuple(index))


def program(objective, constraints=(), bounds=None) -> GeometricProgram:
    """The GeometricProgram of posynomials: objective as a list of factors
    (a lone posynomial or monomial is one factor), constraints as a list of
    posynomials <= 1."""
    objective = objective if isinstance(objective, list) else [objective]
    return GeometricProgram(objective=factors(objective), constraints=factors(constraints),
                            bounds=bounds or {})
