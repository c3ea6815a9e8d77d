"""Affine constraint systems over named integer variables.

A :class:`Constraint` is a quasi-affine expression compared against zero
(``expr == 0`` or ``expr >= 0``).  A :class:`ConstraintSystem` is a
conjunction of constraints, each stored with integer coefficients by
:meth:`Constraint.normalized`; unions of systems are plain Python lists of
systems in the higher layers.

The module provides the operations the cache model pipeline needs:

* normalisation, substitution and div expansion on ``QPoly`` constraints,
* Fourier-Motzkin projection with an exactness certificate for the cases
  where the integer projection equals the rational one (:func:`fm_eliminate`,
  used by parametric lexicographic optimisation),
* bound extraction for a variable (symbolic counting and lexopt),
* rational feasibility (:func:`feasible_rational`) to prune empty pieces,
  and integer ranges (:func:`variable_range`) for explicit enumeration of
  integer points (test oracle and partial-enumeration fallback).

Feasibility and ranges run on an integer-row kernel rather than on
``QPoly`` arithmetic, the way isl keeps integer constraint matrices.  Each
call converts the stored constraints to ``int`` rows once, expands every
``floor`` div into a fresh ``__q{n}`` column with its two defining rows (in
the order and under the names :meth:`ConstraintSystem.expand_divs` uses),
then eliminates columns by Fourier-Motzkin on dense integer tuples.  Rows are
normalised and deduplicated with the rules of :meth:`Constraint.normalized`
and :meth:`ConstraintSystem.add`, so every answer equals the one exact
``Fraction`` arithmetic on the same constraints gives.  Past 24 variables or
600 rows the test answers "feasible" unproved; :func:`feasibility_cache_info`
counts those cut-offs along with the hits of the bounded LRU memo.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .qpoly import Div, QPoly, Symbol, floor_div
from .work import charge as _charge_work

__all__ = [
    "Constraint",
    "ConstraintSystem",
    "NonExactProjectionError",
    "UnboundedSetError",
    "eq",
    "feasibility_cache_info",
    "feasible_rational",
    "ge",
    "le",
    "gt",
    "lt",
]


class NonExactProjectionError(Exception):
    """Raised when Fourier-Motzkin elimination cannot be certified exact."""


class UnboundedSetError(Exception):
    """Raised when a variable that must be bounded has no finite bound."""


EQ = "eq"
INEQ = "ineq"


@dataclass(frozen=True)
class Constraint:
    """``expr == 0`` (kind ``eq``) or ``expr >= 0`` (kind ``ineq``)."""

    expr: QPoly
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (EQ, INEQ):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not self.expr.is_affine():
            raise ValueError(f"constraint expression must be (quasi-)affine: {self.expr}")

    def substitute(self, assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> "Constraint":
        return Constraint(self.expr.substitute(assignment), self.kind)

    def negate(self) -> List["Constraint"]:
        """Return constraints describing the integer complement.

        ``expr >= 0`` negates to ``-expr - 1 >= 0``.  ``expr == 0`` negates to
        the *disjunction* ``expr >= 1 or -expr >= 1``; the two branches are
        returned as a list and it is the caller's responsibility to build the
        union.
        """
        if self.kind == INEQ:
            return [Constraint(-self.expr - 1, INEQ)]
        return [Constraint(self.expr - 1, INEQ), Constraint(-self.expr - 1, INEQ)]

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

    def normalized(self) -> "Constraint":
        """Scale to coprime integer coefficients (and tighten inequalities).

        For inequalities the constant term may be tightened to
        ``floor(const / g)`` after dividing by the gcd ``g`` of the variable
        coefficients, which is valid over the integers.

        A constraint that is already in this form is returned as is when its
        constant term is the last term (where the rebuilt expression puts
        it), so the terms keep their order either way.
        """
        terms = self.expr.terms
        integral = True
        gcd = 0
        for monomial, coeff in terms.items():
            if coeff.denominator != 1:
                integral = False
                break
            if monomial:
                gcd = _gcd(gcd, coeff.numerator)
        if integral and gcd == 1 and (() not in terms or next(reversed(terms)) == ()):
            return self
        coeffs, const = self.expr.affine_coefficients()
        if not coeffs:
            return self
        denominators = [c.denominator for c in coeffs.values()] + [const.denominator]
        lcm = 1
        for d in denominators:
            lcm = lcm * d // _gcd(lcm, d)
        scaled = {sym: c * lcm for sym, c in coeffs.items()}
        scaled_const = const * lcm
        gcd = 0
        for c in scaled.values():
            gcd = _gcd(gcd, abs(c.numerator))
        if gcd > 1:
            scaled = {sym: Fraction(c.numerator // gcd) for sym, c in scaled.items()}
            if self.kind == INEQ:
                scaled_const = Fraction(scaled_const.numerator // (gcd * scaled_const.denominator))
            else:
                if scaled_const.numerator % gcd:
                    # Equality with non-divisible constant: keep as is; the
                    # system will be detected infeasible elsewhere.
                    scaled = {sym: c * gcd for sym, c in scaled.items()}
                else:
                    scaled_const = scaled_const / gcd
        expr = QPoly.from_affine(scaled, scaled_const)
        return Constraint(expr, self.kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr} {op} 0"


#: Alias so call sites read the same as before; ``math.gcd`` is C-implemented
#: and sits on the constraint-normalisation hot path.
_gcd = math.gcd


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def _as_poly(value: Union[QPoly, int, Fraction, str]) -> QPoly:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, str):
        return QPoly.variable(value)
    return QPoly.constant(value)


def ge(lhs, rhs) -> Constraint:
    """Constraint ``lhs >= rhs``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs), INEQ)


def le(lhs, rhs) -> Constraint:
    """Constraint ``lhs <= rhs``."""
    return Constraint(_as_poly(rhs) - _as_poly(lhs), INEQ)


def gt(lhs, rhs) -> Constraint:
    """Strict integer constraint ``lhs > rhs`` i.e. ``lhs >= rhs + 1``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs) - 1, INEQ)


def lt(lhs, rhs) -> Constraint:
    """Strict integer constraint ``lhs < rhs`` i.e. ``lhs <= rhs - 1``."""
    return Constraint(_as_poly(rhs) - _as_poly(lhs) - 1, INEQ)


def eq(lhs, rhs) -> Constraint:
    """Constraint ``lhs == rhs``."""
    return Constraint(_as_poly(lhs) - _as_poly(rhs), EQ)


# ----------------------------------------------------------------------
# Constraint systems
# ----------------------------------------------------------------------
class ConstraintSystem:
    """A conjunction of quasi-affine constraints.

    The system does not distinguish between set variables and parameters;
    callers pass the relevant variable lists to the operations that need the
    distinction (counting, lexicographic optimisation, enumeration).
    """

    __slots__ = ("constraints", "_keys", "_ineq_by_coeffs", "_false")

    def __init__(self, constraints: Optional[Iterable[Constraint]] = None) -> None:
        self.constraints: List[Constraint] = []
        #: Every normalised constraint added so far, kept or subsumed.
        self._keys: set = set()
        #: For inequalities: canonical coefficient vector -> index into
        #: ``constraints``; used to keep only the tightest bound per direction.
        self._ineq_by_coeffs: Dict[Tuple, int] = {}
        #: Whether a trivially false constraint was added.
        self._false = False
        if constraints:
            for constraint in constraints:
                self.add(constraint)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, *, pre_normalized: bool = False) -> None:
        if constraint.is_trivially_true():
            return
        normalized = constraint if pre_normalized else constraint.normalized()
        if normalized in self._keys:
            return
        false = normalized.is_trivially_false()
        if normalized.kind == INEQ and not false:
            # Keep only the tightest inequality per coefficient direction:
            # a.x + c1 >= 0 subsumes a.x + c2 >= 0 whenever c1 <= c2.
            const = normalized.expr.constant_value()
            # The constant term, if any, sorts first in the canonical items.
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

    def copy(self) -> "ConstraintSystem":
        clone = ConstraintSystem()
        clone.constraints = list(self.constraints)
        clone._keys = set(self._keys)
        clone._ineq_by_coeffs = dict(self._ineq_by_coeffs)
        clone._false = self._false
        return clone

    def conjoin(self, other: Union["ConstraintSystem", Iterable[Constraint]]) -> "ConstraintSystem":
        clone = self.copy()
        if isinstance(other, ConstraintSystem):
            # Constraints stored in a system are already normalised.
            for constraint in other.constraints:
                clone.add(constraint, pre_normalized=True)
        else:
            for constraint in other:
                clone.add(constraint)
        return clone

    def substitute(self, assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> "ConstraintSystem":
        return ConstraintSystem(c.substitute(assignment) for c in self.constraints)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
        """Divs whose argument mentions any of ``names`` (recursively)."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "{ " + " and ".join(repr(c) for c in self.constraints) + " }"

    def __len__(self) -> int:
        return len(self.constraints)

    # ------------------------------------------------------------------
    # Div expansion
    # ------------------------------------------------------------------
    def expand_divs(self, names: Sequence[str], prefix: str = "__q") -> Tuple["ConstraintSystem", List[str], Dict[str, Div]]:
        """Replace divs involving ``names`` by fresh existential variables.

        Returns the rewritten system, the list of fresh variable names (to be
        treated as additional innermost variables) and the mapping back to the
        original divs.  Divs that only involve other symbols (parameters) are
        left untouched; they are constants of the sub-problem.
        """
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
            replacement = QPoly.variable(var)
            rewritten = ConstraintSystem()
            for constraint in system.constraints:
                rewritten.add(Constraint(_replace_div(constraint.expr, div, replacement), constraint.kind))
            # The argument keeps its own (nested) divs even when they were
            # expanded before; they are then expanded again under a new name.
            argument = div.argument()
            rewritten.add(ge(argument - QPoly.variable(var) * div.denominator, 0))
            rewritten.add(le(argument - QPoly.variable(var) * div.denominator, div.denominator - 1))
            system = rewritten
            targets = system.divs_involving(list(names) + fresh)
        return system, fresh, mapping


def _replace_div(poly: QPoly, div: Div, replacement: QPoly) -> QPoly:
    result = QPoly()
    for monomial, coeff in poly.terms.items():
        factor = QPoly.constant(coeff)
        for sym, exp in monomial:
            base = replacement if sym == div else QPoly.variable(sym)
            for _ in range(exp):
                factor = factor * base
        result = result + factor
    return result


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bound:
    """A lower or upper bound on a variable.

    For a lower bound the originating constraint is ``coeff * v >= expr`` and
    the implied quasi-affine bound is ``v >= ceil(expr / coeff)``; for an
    upper bound it is ``coeff * v <= expr`` implying ``v <= floor(expr / coeff)``.
    ``coeff`` is always positive.
    """

    expr: QPoly
    coeff: int
    is_lower: bool

    def value(self) -> QPoly:
        if self.coeff == 1:
            return self.expr
        if self.is_lower:
            return floor_div(self.expr + (self.coeff - 1), self.coeff)
        return floor_div(self.expr, self.coeff)


def bounds_for(system: ConstraintSystem, name: str) -> Tuple[List[Bound], List[Bound], List[Constraint]]:
    """Split the system into lower bounds, upper bounds and the rest.

    Equalities involving ``name`` contribute both a lower and an upper bound.
    Constraints whose expression mentions ``name`` inside a div argument are
    not supported here; callers must residue-split those first.
    """
    lowers: List[Bound] = []
    uppers: List[Bound] = []
    rest: List[Constraint] = []
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
        remainder = expr - QPoly.variable(name) * coeff
        if constraint.kind == EQ:
            # a*v + r == 0  ->  v >= ceil(-r/a) and v <= floor(-r/a) (a > 0)
            if a > 0:
                lowers.append(Bound(-remainder, a, True))
                uppers.append(Bound(-remainder, a, False))
            else:
                lowers.append(Bound(remainder, -a, True))
                uppers.append(Bound(remainder, -a, False))
        else:
            if a > 0:
                lowers.append(Bound(-remainder, a, True))
            else:
                uppers.append(Bound(remainder, -a, False))
    return lowers, uppers, rest


# ----------------------------------------------------------------------
# Fourier-Motzkin elimination and feasibility
# ----------------------------------------------------------------------
def fm_eliminate(system: ConstraintSystem, name: str, *, require_exact: bool = False) -> ConstraintSystem:
    """Eliminate ``name`` by Fourier-Motzkin.

    The result is the rational shadow; it is certified to equal the integer
    projection when every lower bound or every upper bound on ``name`` has a
    unit coefficient (this is the classic exactness condition, satisfied by
    all loop-bound style constraints).  ``require_exact=True`` raises
    :class:`NonExactProjectionError` otherwise.
    """
    if not system.involves(name):
        return system
    expanded, fresh, _ = system.expand_divs([name])
    if fresh:
        # Divs involving the eliminated variable: eliminate the fresh
        # existentials afterwards (they are innermost).
        result = expanded
        for aux in [name] + fresh:
            result = fm_eliminate(result, aux, require_exact=require_exact)
        return result
    lowers, uppers, rest = bounds_for(system, name)
    exact = all(b.coeff == 1 for b in lowers) or all(b.coeff == 1 for b in uppers)
    if require_exact and not exact:
        raise NonExactProjectionError(f"projection of {name} cannot be certified exact")
    out = ConstraintSystem(rest)
    for low in lowers:
        for up in uppers:
            # low.expr / low.coeff <= v <= up.expr / up.coeff
            out.add(ge(up.expr * low.coeff - low.expr * up.coeff, 0))
    return out


def substitute_equalities(system: ConstraintSystem, names: Sequence[str]) -> Tuple[ConstraintSystem, Dict[str, QPoly]]:
    """Use unit-coefficient equalities to substitute out variables in ``names``.

    Returns the simplified system and the mapping of eliminated variables to
    their defining expressions.  Only exact (coefficient +-1) substitutions
    are performed.
    """
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
                    rest = constraint.expr - QPoly.variable(name) * coeff
                    value = rest * (-1) if coeff == 1 else rest
                    replacement = {name: value}
                    assignment = {k: v.substitute(replacement) for k, v in assignment.items()}
                    assignment[name] = value
                    current = current.substitute(replacement)
                    remaining.discard(name)
                    changed = True
                    break
            if changed:
                break
    return current, assignment


# ----------------------------------------------------------------------
# Rational feasibility on integer rows
# ----------------------------------------------------------------------
#: Elimination gives up and answers "feasible" past this many rows.
_MAX_ROWS = 600


class _Rows:
    """Integer rows ``(is_eq, coeffs, const)`` for ``coeffs . x + const``
    ``== 0`` (or ``>= 0``), kept the way a :class:`ConstraintSystem` keeps
    constraints.

    ``coeffs`` is a ``{symbol: int}`` dict while divs are expanded (in the
    term order of the constraint it came from, which decides the order divs
    are expanded in) and a tuple over fixed columns during elimination.
    """

    __slots__ = ("rows", "contradiction", "_keys", "_ineq_at")

    def __init__(self) -> None:
        self.rows: List[Tuple[bool, Any, int]] = []
        #: Set once a constant row that does not hold was added.
        self.contradiction = False
        self._keys: set = set()
        self._ineq_at: Dict[Any, int] = {}

    def add(self, is_eq: bool, coeffs: Any, const: int, scale: int = 1) -> None:
        """Add ``scale`` (> 0) times a rational row, normalised and deduplicated.

        Normalisation is :meth:`Constraint.normalized` on integers; then, as
        in :meth:`ConstraintSystem.add`, exact duplicates are dropped and only
        the tightest inequality per coefficient direction is kept, in the slot
        of the first one.  Constant rows are not kept.
        """
        dense = type(coeffs) is tuple
        g = _gcd(*(coeffs if dense else coeffs.values()))
        if not g:
            self.contradiction |= const != 0 if is_eq else const < 0
            return
        if g > 1 and is_eq and const % g:
            # ``normalized`` keeps such an equality in its lcm-scaled form.
            g = _gcd(scale, g, const)
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


class _DivTable:
    """The divs of one call as ``int`` symbols.

    Hashing a :class:`Div` walks its ``Fraction`` items, so each distinct div
    is hashed once, here, and rows use its index.
    """

    __slots__ = ("ids", "divs", "variables")

    def __init__(self) -> None:
        self.ids: Dict[Div, int] = {}
        self.divs: List[Div] = []
        self.variables: List[set] = []

    def symbol(self, sym: Symbol) -> Union[str, int]:
        if isinstance(sym, str):
            return sym
        index = self.ids.get(sym)
        if index is None:
            index = self.ids[sym] = len(self.divs)
            self.divs.append(sym)
            self.variables.append(_div_variables(sym))
        return index

    def first(self, rows: _Rows, wanted: Optional[set]) -> Optional[int]:
        """First div (row order, then term order) with a free variable in ``wanted``."""
        seen: set = set()
        for _, coeffs, _ in rows.rows:
            for sym in coeffs:
                if type(sym) is int and sym not in seen:
                    seen.add(sym)
                    free = self.variables[sym]
                    if free if wanted is None else free & wanted:
                        return sym
        return None

    def definition(self, index: int, var: str) -> List[Tuple[Dict[Union[str, int], int], int]]:
        """``arg - d*var >= 0`` and ``d - 1 - arg + d*var >= 0`` as integer rows."""
        div = self.divs[index]
        terms: Dict[Union[str, int], Fraction] = {}
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


def _expand_divs(system: ConstraintSystem, names: Optional[Sequence[str]]) -> Tuple[_Rows, List[str]]:
    """Integer rows of ``system`` with divs renamed to existential columns.

    Follows :meth:`ConstraintSystem.expand_divs`: the same divs (those whose
    argument mentions ``names``; every div with a free variable when
    ``names`` is None) are expanded in the same order under the same
    ``__q{n}`` names.  Returns the rows and the fresh names; divs left
    unexpanded stay as ``int`` symbols.
    """
    table = _DivTable()
    rows = _Rows()
    for constraint in system.constraints:
        # Stored constraints are normalised: every coefficient is an integer.
        coeffs: Dict[Union[str, int], int] = {}
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
        out = _Rows()
        out.contradiction = rows.contradiction
        for is_eq, coeffs, const in rows.rows:
            if div in coeffs:
                # Rename like ``QPoly`` addition: a fresh name that is already
                # a variable of the row merges into it, in its slot.
                renamed: Dict[Union[str, int], int] = {}
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
    return rows, fresh


def _dense(rows: _Rows) -> Tuple[List[Union[str, int]], List[Tuple[bool, tuple, int]]]:
    """The columns (variables, then unexpanded divs) and the rows over them."""
    symbols = list(dict.fromkeys(sym for _, coeffs, _ in rows.rows for sym in coeffs))
    symbols.sort(key=lambda sym: not isinstance(sym, str))
    return symbols, [(is_eq, tuple(coeffs.get(sym, 0) for sym in symbols), const) for is_eq, coeffs, const in rows.rows]


def _eliminate(rows: List[Tuple[bool, tuple, int]], column: int) -> _Rows:
    """One Fourier-Motzkin step on dense rows.

    The first equality involving ``column`` is substituted into the other
    rows; without one, every lower bound is combined with every upper bound.
    """
    out = _Rows()
    pivot = next((row for row in rows if row[0] and row[1][column]), None)
    if pivot is not None:
        _, pivot_coeffs, pivot_const = pivot
        sign = 1 if pivot_coeffs[column] > 0 else -1
        p = pivot_coeffs[column] * sign
        for row in rows:
            if row is pivot:
                continue
            is_eq, coeffs, const = row
            q = -coeffs[column] * sign
            if q:
                # |a| * (row - b/a * pivot): an integer row, |a| times the rational one.
                coeffs = tuple(p * x + q * y for x, y in zip(coeffs, pivot_coeffs))
                out.add(is_eq, coeffs, p * const + q * pivot_const, p)
            else:
                out.add(is_eq, coeffs, const)
        return out
    lowers = []
    uppers = []
    for row in rows:
        b = row[1][column]
        if not b:
            out.add(*row)
        elif b > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    for _, low, low_const in lowers:
        p = low[column]
        for _, up, up_const in uppers:
            q = -up[column]
            out.add(False, tuple(p * u + q * l for l, u in zip(low, up)), p * up_const + q * low_const)
    return out


def _feasible_rows(system: ConstraintSystem, max_vars: int) -> Tuple[bool, Optional[str]]:
    """The answer, and the cut-off (``vars_cutoffs``/``rows_cutoffs``) that gave it, if any."""
    expanded, _ = _expand_divs(system, None)
    symbols, rows = _dense(expanded)
    remaining = [sym for sym in symbols if isinstance(sym, str)]
    if len(remaining) > max_vars:
        return True, "vars_cutoffs"
    column_of = {sym: index for index, sym in enumerate(symbols)}
    contradiction = expanded.contradiction
    while remaining and rows and not contradiction:
        # Greedy minimum-occurrence ordering keeps the Fourier-Motzkin blow-up low.
        columns = list(zip(*(coeffs for _, coeffs, _ in rows)))
        occurrences = {name: len(rows) - columns[column_of[name]].count(0) for name in remaining}
        name = min(remaining, key=lambda n: (occurrences[n], n))
        remaining.remove(name)
        step = _eliminate(rows, column_of[name])
        rows, contradiction = step.rows, step.contradiction
        if not contradiction and len(rows) > _MAX_ROWS:
            return True, "rows_cutoffs"
    return not contradiction, None


class _FeasibilityMemo:
    """The :func:`feasible_rational` answers of this process: an LRU of
    ``maxsize`` entries, so long-lived workers keep caching, and counters."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        #: key -> (the same key object, answer).
        self._answers: "OrderedDict[frozenset, Tuple[frozenset, bool]]" = OrderedDict()
        self._counts = dict.fromkeys(("hits", "misses", "evictions", "vars_cutoffs", "rows_cutoffs"), 0)
        # Server requests may analyse on threads; the counters and the LRU
        # order are read-modify-write.
        self._lock = threading.Lock()

    def get(self, key: frozenset) -> Optional[bool]:
        with self._lock:
            entry = self._answers.get(key)
            if entry is None:
                self._counts["misses"] += 1
                return None
            self._counts["hits"] += 1
            # Move the stored key object itself: the lookups inside
            # ``move_to_end`` then match by identity instead of comparing a
            # fresh key with it constraint by constraint.
            stored, answer = entry
            self._answers.move_to_end(stored)
            return answer

    def put(self, key: frozenset, answer: bool, cutoff: Optional[str]) -> None:
        with self._lock:
            if cutoff:
                self._counts[cutoff] += 1
            self._answers[key] = (key, answer)
            if len(self._answers) > self.maxsize:
                self._answers.popitem(last=False)
                self._counts["evictions"] += 1

    def info(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts, size=len(self._answers), maxsize=self.maxsize)


_FEASIBILITY_MEMO = _FeasibilityMemo(200_000)


def feasibility_cache_info() -> Dict[str, int]:
    """Counters of the :func:`feasible_rational` memo since the process started.

    ``hits``/``misses``/``evictions``/``size``/``maxsize`` describe the LRU
    memo.  ``vars_cutoffs`` and ``rows_cutoffs`` count the uncached calls
    answered "feasible" without a proof, because the system had more than
    ``max_vars`` variables or elimination grew past 600 rows.
    """
    return _FEASIBILITY_MEMO.info()


def feasible_rational(system: ConstraintSystem, *, max_vars: int = 24) -> bool:
    """Sound emptiness pruning: ``False`` means definitely integer-empty.

    All free variables (including divs, which are expanded) are treated as
    rational unknowns and eliminated by Fourier-Motzkin.  The test
    over-approximates integer feasibility, which is the safe direction for
    pruning pieces.  Results are memoised on the set of stored constraints,
    whose hashes their expressions compute once.
    """
    if system.has_trivially_false():
        return False
    # Charged before the memo lookup: the unit count then only depends on the
    # call sequence (deterministic per job), not on cross-job cache warmth.
    _charge_work()
    cache_key = frozenset(system.constraints)
    memo = _FEASIBILITY_MEMO
    answer = memo.get(cache_key)
    if answer is None:
        answer, cutoff = _feasible_rows(system, max_vars)
        memo.put(cache_key, answer, cutoff)
    return answer


# ----------------------------------------------------------------------
# Explicit enumeration
# ----------------------------------------------------------------------
def variable_range(system: ConstraintSystem, name: str, others: Sequence[str]) -> Tuple[int, int]:
    """Integer range of ``name`` after rationally eliminating ``others``.

    The range over-approximates the true projection; callers must re-check
    constraints for each candidate point.  Raises :class:`UnboundedSetError`
    if no finite bound exists.
    """
    expanded, fresh = _expand_divs(system, list(others) + [name])
    symbols, rows = _dense(expanded)
    column_of = {sym: index for index, sym in enumerate(symbols)}
    for other in list(others) + fresh:
        if other in column_of:
            rows = _eliminate(rows, column_of[other]).rows
    lows: List[int] = []
    highs: List[int] = []
    column = column_of.get(name)
    for is_eq, coeffs, const in rows if column is not None else ():
        coeff = coeffs[column]
        if not coeff or len(coeffs) - coeffs.count(0) > 1:
            continue
        # coeff * name + const (== or >=) 0 bounds name by -const / coeff.
        if coeff > 0 or is_eq:
            lows.append(-(const // coeff))
        if coeff < 0 or is_eq:
            highs.append(-const // coeff)
    if not lows or not highs:
        raise UnboundedSetError(f"variable {name} is not bounded")
    return max(lows), min(highs)


def enumerate_points(system: ConstraintSystem, names: Sequence[str]) -> Iterator[Dict[str, int]]:
    """Enumerate all integer points of the projection onto ``names``.

    The system may mention additional variables; those are treated as
    existentially quantified and checked only rationally, which can produce
    points outside the exact projection.  For the cache model this is used
    either on systems without extra variables (exact) or as the
    partial-enumeration driver, where spurious points only cost time (their
    symbolic count is zero).
    """
    names = list(names)
    yield from _enumerate_recursive(system, names, {})


def _enumerate_recursive(system: ConstraintSystem, names: List[str], partial: Dict[str, int]) -> Iterator[Dict[str, int]]:
    if not names:
        if _check_point_rational(system):
            yield dict(partial)
        return
    name = names[0]
    rest = names[1:]
    try:
        low, high = variable_range(system, name, [n for n in system.variables() if n != name and isinstance(n, str)])
    except UnboundedSetError:
        raise
    for value in range(low, high + 1):
        substituted = system.substitute({name: value})
        if substituted.has_trivially_false():
            continue
        if not feasible_rational(substituted):
            continue
        partial[name] = value
        yield from _enumerate_recursive(substituted, rest, partial)
        del partial[name]


def _check_point_rational(system: ConstraintSystem) -> bool:
    remaining = sorted(n for n in system.variables())
    if not remaining:
        return not system.has_trivially_false()
    return feasible_rational(system)


def count_points_explicit(system: ConstraintSystem, names: Sequence[str]) -> int:
    """Count integer points of a fully-specified system by enumeration."""
    return sum(1 for _ in enumerate_points(system, names))
