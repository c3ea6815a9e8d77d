"""The constraint layer before it moved onto cached integer rows: oracles.

``repro.isl.constraints`` now keeps an integer row per constraint and runs
``ConstraintSystem.add``/``substitute``, div expansion, Fourier-Motzkin
projection and equality substitution on rows, and ``QPoly`` arithmetic and
substitution take shortcuts.  This module keeps the ``QPoly``/``Fraction``
versions they replaced, unchanged but for two things: every ``QPoly``
operator is spelled as one of the functions below (the old arithmetic), so
that no oracle runs the current ``QPoly`` arithmetic, and the classes are
named :class:`OldConstraint` and :class:`OldSystem`.  The tests compare the
current code with these on random systems: the same terms in the same
order, the same constraint lists and the same answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isl.qpoly import Div, QPoly, _floor_fraction, _monomial_mul

EQ = "eq"
INEQ = "ineq"


# ----------------------------------------------------------------------
# QPoly arithmetic and substitution
# ----------------------------------------------------------------------
def constant(value) -> QPoly:
    return QPoly({(): Fraction(value)})


def variable(name) -> QPoly:
    return QPoly({((name, 1),): Fraction(1)})


def _poly(value) -> QPoly:
    return value if isinstance(value, QPoly) else constant(value)


def add(poly: QPoly, other) -> QPoly:
    terms = dict(poly.terms)
    for monomial, coeff in _poly(other).terms.items():
        new = terms.get(monomial, Fraction(0)) + coeff
        if new:
            terms[monomial] = new
        elif monomial in terms:
            del terms[monomial]
    return QPoly(terms)


def neg(poly: QPoly) -> QPoly:
    return QPoly({monomial: -coeff for monomial, coeff in poly.terms.items()})


def sub(poly: QPoly, other) -> QPoly:
    return add(poly, neg(_poly(other)))


def mul(poly: QPoly, other) -> QPoly:
    if not isinstance(other, QPoly):
        factor = Fraction(other)
        if not factor:
            return QPoly()
        return QPoly({monomial: coeff * factor for monomial, coeff in poly.terms.items()})
    result: Dict = {}
    for mono_a, coeff_a in poly.terms.items():
        for mono_b, coeff_b in other.terms.items():
            monomial = _monomial_mul(mono_a, mono_b)
            new = result.get(monomial, Fraction(0)) + coeff_a * coeff_b
            if new:
                result[monomial] = new
            elif monomial in result:
                del result[monomial]
    return QPoly(result)


def substitute(poly: QPoly, assignment) -> QPoly:
    if not assignment:
        return poly
    result = QPoly()
    for monomial, coeff in poly.terms.items():
        factor = constant(coeff)
        for sym, exp in monomial:
            replacement = _substitute_symbol(sym, assignment)
            for _ in range(exp):
                factor = mul(factor, replacement)
        result = add(result, factor)
    return result


def _substitute_symbol(sym, assignment) -> QPoly:
    if isinstance(sym, str):
        if sym in assignment:
            value = assignment[sym]
            return value if isinstance(value, QPoly) else constant(value)
        return variable(sym)
    argument = substitute(sym.argument(), assignment)
    return floor_div(argument, sym.denominator)


def floor_div(argument: QPoly, denominator: int) -> QPoly:
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if denominator == 1:
        return argument
    if argument.is_constant():
        value = argument.constant_value()
        return constant(_floor_fraction(value, denominator))
    pulled = QPoly()
    remainder = QPoly()
    for monomial, coeff in argument.terms.items():
        if coeff.denominator == 1 and coeff.numerator % denominator == 0:
            pulled = add(pulled, QPoly({monomial: Fraction(coeff.numerator // denominator)}))
        else:
            remainder = add(remainder, QPoly({monomial: coeff}))
    if remainder.is_zero():
        return pulled
    if remainder.is_constant():
        return add(pulled, constant(_floor_fraction(remainder.constant_value(), denominator)))
    gcd = denominator
    integral = True
    for coeff in remainder.terms.values():
        if coeff.denominator != 1:
            integral = False
            break
        gcd = math.gcd(gcd, abs(coeff.numerator))
    if integral and gcd > 1:
        remainder = mul(remainder, Fraction(1, gcd))
        denominator //= gcd
        if denominator == 1:
            return add(pulled, remainder)
    div = Div(remainder._canonical_items(), denominator)
    return add(pulled, variable(div))


# ----------------------------------------------------------------------
# Constraints and systems
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OldConstraint:
    expr: QPoly
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (EQ, INEQ):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not self.expr.is_affine():
            raise ValueError(f"constraint expression must be (quasi-)affine: {self.expr}")

    def substitute(self, assignment) -> "OldConstraint":
        return OldConstraint(substitute(self.expr, assignment), self.kind)

    def negate(self) -> List["OldConstraint"]:
        if self.kind == INEQ:
            return [OldConstraint(sub(neg(self.expr), 1), INEQ)]
        return [OldConstraint(sub(self.expr, 1), INEQ), OldConstraint(sub(neg(self.expr), 1), INEQ)]

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        value = self.expr.constant_value()
        return value == 0 if self.kind == EQ else value >= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        value = self.expr.constant_value()
        return value != 0 if self.kind == EQ else value < 0

    def normalized(self) -> "OldConstraint":
        terms = self.expr.terms
        integral = True
        gcd = 0
        for monomial, coeff in terms.items():
            if coeff.denominator != 1:
                integral = False
                break
            if monomial:
                gcd = math.gcd(gcd, coeff.numerator)
        if integral and gcd == 1 and (() not in terms or next(reversed(terms)) == ()):
            return self
        coeffs, const = self.expr.affine_coefficients()
        if not coeffs:
            return self
        denominators = [c.denominator for c in coeffs.values()] + [const.denominator]
        lcm = 1
        for d in denominators:
            lcm = lcm * d // math.gcd(lcm, d)
        scaled = {sym: c * lcm for sym, c in coeffs.items()}
        scaled_const = const * lcm
        gcd = 0
        for c in scaled.values():
            gcd = math.gcd(gcd, abs(c.numerator))
        if gcd > 1:
            scaled = {sym: Fraction(c.numerator // gcd) for sym, c in scaled.items()}
            if self.kind == INEQ:
                scaled_const = Fraction(scaled_const.numerator // (gcd * scaled_const.denominator))
            else:
                if scaled_const.numerator % gcd:
                    scaled = {sym: c * gcd for sym, c in scaled.items()}
                else:
                    scaled_const = scaled_const / gcd
        expr = QPoly.from_affine(scaled, scaled_const)
        return OldConstraint(expr, self.kind)


def _as_poly(value) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, str):
        return variable(value)
    return constant(value)


def ge(lhs, rhs) -> OldConstraint:
    return OldConstraint(sub(_as_poly(lhs), _as_poly(rhs)), INEQ)


def le(lhs, rhs) -> OldConstraint:
    return OldConstraint(sub(_as_poly(rhs), _as_poly(lhs)), INEQ)


def old(constraint) -> OldConstraint:
    """The oracle's constraint with the expression and kind of ``constraint``."""
    return OldConstraint(constraint.expr, constraint.kind)


class OldSystem:
    def __init__(self, constraints=None) -> None:
        self.constraints: List[OldConstraint] = []
        self._keys: set = set()
        self._ineq_by_coeffs: Dict[Tuple, int] = {}
        self._false = False
        if constraints:
            for constraint in constraints:
                self.add(constraint)

    def add(self, constraint: OldConstraint, *, pre_normalized: bool = False) -> None:
        if constraint.is_trivially_true():
            return
        normalized = constraint if pre_normalized else constraint.normalized()
        if normalized in self._keys:
            return
        false = normalized.is_trivially_false()
        if normalized.kind == INEQ and not false:
            const = normalized.expr.constant_value()
            items = normalized.expr._canonical_items()
            coeff_key = items[1:] if items[0][0] == () else items
            existing_index = self._ineq_by_coeffs.get(coeff_key)
            if existing_index is not None:
                existing = self.constraints[existing_index]
                if existing.expr.constant_value() <= const:
                    return
                self.constraints[existing_index] = normalized
                self._keys.add(normalized)
                return
            self._keys.add(normalized)
            self._ineq_by_coeffs[coeff_key] = len(self.constraints)
            self.constraints.append(normalized)
            return
        self._keys.add(normalized)
        self.constraints.append(normalized)
        self._false |= false

    def copy(self) -> "OldSystem":
        clone = OldSystem()
        clone.constraints = list(self.constraints)
        clone._keys = set(self._keys)
        clone._ineq_by_coeffs = dict(self._ineq_by_coeffs)
        clone._false = self._false
        return clone

    def conjoin(self, other) -> "OldSystem":
        clone = self.copy()
        if isinstance(other, OldSystem):
            for constraint in other.constraints:
                clone.add(constraint, pre_normalized=True)
        else:
            for constraint in other:
                clone.add(constraint)
        return clone

    def substitute(self, assignment) -> "OldSystem":
        return OldSystem(c.substitute(assignment) for c in self.constraints)

    def variables(self) -> set:
        names: set = set()
        for constraint in self.constraints:
            names |= constraint.expr.free_variables()
        return names

    def has_trivially_false(self) -> bool:
        return self._false

    def involves(self, name: str) -> bool:
        return any(c.expr.involves(name) for c in self.constraints)

    def divs_involving(self, names: Sequence[str]) -> List[Div]:
        name_set = set(names)
        found: List[Div] = []
        seen = set()
        for constraint in self.constraints:
            for div in constraint.expr.divs():
                if div in seen:
                    continue
                seen.add(div)
                if div.argument().free_variables() & name_set:
                    found.append(div)
        return found

    def __len__(self) -> int:
        return len(self.constraints)

    def expand_divs(self, names: Sequence[str], prefix: str = "__q"):
        targets = self.divs_involving(names)
        if not targets:
            return self, [], {}
        system = self
        fresh: List[str] = []
        mapping: Dict[str, Div] = {}
        counter = 0
        while targets:
            div = targets[0]
            var = f"{prefix}{counter}"
            counter += 1
            fresh.append(var)
            mapping[var] = div
            replacement = variable(var)
            rewritten = OldSystem()
            for constraint in system.constraints:
                rewritten.add(OldConstraint(_replace_div(constraint.expr, div, replacement), constraint.kind))
            argument = div.argument()
            rewritten.add(ge(sub(argument, mul(variable(var), div.denominator)), 0))
            rewritten.add(le(sub(argument, mul(variable(var), div.denominator)), div.denominator - 1))
            system = rewritten
            targets = system.divs_involving(list(names) + fresh)
        return system, fresh, mapping


def to_old(system) -> OldSystem:
    """The oracle's system of the stored constraints of ``system``."""
    return OldSystem(old(c) for c in system.constraints)


def _replace_div(poly: QPoly, div: Div, replacement: QPoly) -> QPoly:
    result = QPoly()
    for monomial, coeff in poly.terms.items():
        factor = constant(coeff)
        for sym, exp in monomial:
            base = replacement if sym == div else variable(sym)
            for _ in range(exp):
                factor = mul(factor, base)
        result = add(result, factor)
    return result


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------
class NonExact(Exception):
    pass


@dataclass(frozen=True)
class Bound:
    expr: QPoly
    coeff: int
    is_lower: bool


def bounds_for(system: OldSystem, name: str):
    lowers: List[Bound] = []
    uppers: List[Bound] = []
    rest: List[OldConstraint] = []
    for constraint in system.constraints:
        expr = constraint.expr
        if expr.degree_in_divs(name):
            raise ValueError(f"variable {name} occurs inside a div argument; residue-split first")
        coeff = expr.coefficient(name)
        if not coeff:
            rest.append(constraint)
            continue
        if coeff.denominator != 1:
            raise ValueError("constraints must be normalised to integer coefficients")
        a = coeff.numerator
        remainder = sub(expr, mul(variable(name), coeff))
        if constraint.kind == EQ:
            if a > 0:
                lowers.append(Bound(neg(remainder), a, True))
                uppers.append(Bound(neg(remainder), a, False))
            else:
                lowers.append(Bound(remainder, -a, True))
                uppers.append(Bound(remainder, -a, False))
        else:
            if a > 0:
                lowers.append(Bound(neg(remainder), a, True))
            else:
                uppers.append(Bound(remainder, -a, False))
    return lowers, uppers, rest


def fm_eliminate(system: OldSystem, name: str, *, require_exact: bool = False) -> OldSystem:
    if not system.involves(name):
        return system
    expanded, fresh, _ = system.expand_divs([name])
    if fresh:
        result = expanded
        for aux in [name] + fresh:
            result = fm_eliminate(result, aux, require_exact=require_exact)
        return result
    lowers, uppers, rest = bounds_for(system, name)
    exact = all(b.coeff == 1 for b in lowers) or all(b.coeff == 1 for b in uppers)
    if require_exact and not exact:
        raise NonExact(name)
    out = OldSystem(rest)
    for low in lowers:
        for up in uppers:
            out.add(ge(sub(mul(up.expr, low.coeff), mul(low.expr, up.coeff)), 0))
    return out


def substitute_equalities(system: OldSystem, names: Sequence[str]) -> Tuple[OldSystem, Dict[str, QPoly]]:
    assignment: Dict[str, QPoly] = {}
    current = system
    changed = True
    remaining = set(names)
    while changed and remaining:
        changed = False
        for constraint in current.constraints:
            if constraint.kind != EQ:
                continue
            for name in list(remaining):
                coeff = constraint.expr.coefficient(name)
                if coeff in (1, -1) and not constraint.expr.degree_in_divs(name):
                    rest = sub(constraint.expr, mul(variable(name), coeff))
                    value = mul(rest, -1) if coeff == 1 else rest
                    replacement = {name: value}
                    assignment = {k: substitute(v, replacement) for k, v in assignment.items()}
                    assignment[name] = value
                    current = current.substitute(replacement)
                    remaining.discard(name)
                    changed = True
                    break
            if changed:
                break
    return current, assignment


def project_inner(system: OldSystem, head: str, tail: List[str]) -> OldSystem:
    """``repro.isl.lexopt._project_inner`` on the oracle's functions."""
    expanded, fresh, _ = system.expand_divs([head] + tail)
    eliminate = list(tail) + list(fresh)
    if eliminate:
        expanded, assignment = substitute_equalities(expanded, eliminate)
        eliminate = [name for name in eliminate if name not in assignment]
    projected = expanded
    for name in reversed(eliminate):
        if not projected.involves(name):
            continue
        projected = fm_eliminate(projected, name, require_exact=True)
    return projected


# ----------------------------------------------------------------------
# The integer-row conversion of div expansion, with divs interned as ints
# ----------------------------------------------------------------------
class Rows:
    __slots__ = ("rows", "contradiction", "_keys", "_ineq_at")

    def __init__(self) -> None:
        self.rows: List = []
        self.contradiction = False
        self._keys: set = set()
        self._ineq_at: Dict = {}

    def add(self, is_eq: bool, coeffs, const: int, scale: int = 1) -> None:
        dense = type(coeffs) is tuple
        g = math.gcd(*(coeffs if dense else coeffs.values()))
        if not g:
            self.contradiction |= const != 0 if is_eq else const < 0
            return
        if g > 1 and is_eq and const % g:
            g = math.gcd(scale, g, const)
        if g > 1:
            coeffs = tuple(x // g for x in coeffs) if dense else {sym: x // g for sym, x in coeffs.items()}
            const //= g
        direction = coeffs if dense else frozenset(coeffs.items())
        key = (is_eq, direction, const)
        if key in self._keys:
            return
        self._keys.add(key)
        if not is_eq:
            index = self._ineq_at.get(direction)
            if index is not None:
                if self.rows[index][2] > const:
                    self.rows[index] = (is_eq, coeffs, const)
                return
            self._ineq_at[direction] = len(self.rows)
        self.rows.append((is_eq, coeffs, const))


def _div_variables(div: Div) -> set:
    names: set = set()
    for monomial, _ in div.items:
        for sym, _exp in monomial:
            names |= {sym} if isinstance(sym, str) else _div_variables(sym)
    return names


class DivTable:
    __slots__ = ("ids", "divs", "variables")

    def __init__(self) -> None:
        self.ids: Dict[Div, int] = {}
        self.divs: List[Div] = []
        self.variables: List[set] = []

    def symbol(self, sym):
        if isinstance(sym, str):
            return sym
        index = self.ids.get(sym)
        if index is None:
            index = self.ids[sym] = len(self.divs)
            self.divs.append(sym)
            self.variables.append(_div_variables(sym))
        return index

    def first(self, rows: Rows, wanted: Optional[set]) -> Optional[int]:
        seen: set = set()
        for _, coeffs, _ in rows.rows:
            for sym in coeffs:
                if type(sym) is int and sym not in seen:
                    seen.add(sym)
                    free = self.variables[sym]
                    if free if wanted is None else free & wanted:
                        return sym
        return None

    def definition(self, index: int, var: str):
        div = self.divs[index]
        terms: Dict = {}
        const = Fraction(0)
        for monomial, value in div.items:
            if not monomial:
                const = value
            elif len(monomial) != 1 or monomial[0][1] != 1:
                raise ValueError(f"constraint expression must be (quasi-)affine: {div}")
            else:
                terms[self.symbol(monomial[0][0])] = value
        total = terms.get(var, 0) - div.denominator
        if total:
            terms[var] = total
        else:
            terms.pop(var, None)
        scale = math.lcm(const.denominator, *(value.denominator for value in terms.values()))
        low = {sym: int(value * scale) for sym, value in terms.items()}
        low_const = int(const * scale)
        high = {sym: -value for sym, value in low.items()}
        return [(low, low_const), (high, (div.denominator - 1) * scale - low_const)]


def expand_rows(system, names: Optional[Sequence[str]]):
    """The rows, with the divs as ``Div`` symbols again, and the fresh names."""
    table = DivTable()
    rows = Rows()
    for constraint in system.constraints:
        coeffs: Dict = {}
        const = 0
        for monomial, value in constraint.expr.terms.items():
            if monomial:
                coeffs[table.symbol(monomial[0][0])] = value.numerator
            else:
                const = value.numerator
        rows.add(constraint.kind == EQ, coeffs, const)
    wanted = None if names is None else set(names)
    fresh: List[str] = []
    div = table.first(rows, wanted)
    while div is not None:
        var = f"__q{len(fresh)}"
        fresh.append(var)
        if wanted is not None:
            wanted.add(var)
        out = Rows()
        out.contradiction = rows.contradiction
        for is_eq, coeffs, const in rows.rows:
            if div in coeffs:
                renamed: Dict = {}
                for sym, value in coeffs.items():
                    sym = var if sym == div else sym
                    total = renamed.get(sym, 0) + value
                    if total:
                        renamed[sym] = total
                    else:
                        renamed.pop(sym, None)
                coeffs = renamed
            out.add(is_eq, coeffs, const)
        for coeffs, const in table.definition(div, var):
            out.add(False, coeffs, const)
        rows = out
        div = table.first(rows, wanted)
    named = [
        (is_eq, {table.divs[sym] if type(sym) is int else sym: value for sym, value in coeffs.items()}, const)
        for is_eq, coeffs, const in rows.rows
    ]
    return named, rows.contradiction, fresh
