"""Affine constraint systems over named integer variables.

A :class:`Constraint` is a quasi-affine expression compared against zero
(``expr == 0`` or ``expr >= 0``).  A :class:`ConstraintSystem` is a
conjunction of constraints, each stored with integer coefficients by
:meth:`Constraint.normalized`; unions of systems are plain Python lists of
systems in the higher layers.

The module provides the operations the cache model pipeline needs:

* normalisation, substitution and div expansion of constraints,
* Fourier-Motzkin projection with an exactness certificate for the cases
  where the integer projection equals the rational one (:func:`fm_eliminate`,
  used by parametric lexicographic optimisation),
* bound extraction for a variable (symbolic counting and lexopt),
* rational feasibility (:func:`feasible_rational`) to prune empty pieces,
  and integer ranges (:func:`variable_range`) for explicit enumeration of
  integer points (test oracle and partial-enumeration fallback).

The constraint layer works on integer rows rather than on ``QPoly``
arithmetic, the way isl keeps integer constraint matrices.  Every
constraint computes its row ``(is_eq, {symbol: coefficient}, constant)``
once, in term order, and keeps it with its coefficient direction and hash
(:meth:`Constraint.row`); ``ConstraintSystem.add`` deduplicates and keeps
the tightest inequality per direction from them, and substitution, div
expansion and :func:`fm_eliminate` merge rows in the order ``QPoly``
arithmetic adds terms, so the stored constraints are the same, terms and
their order included.  ``QPoly`` expressions are built only for the
constraints the rows produce.

Feasibility and ranges expand every ``floor`` div into a fresh ``__q{n}``
column with its two defining rows (the rows of each div are computed once
per :class:`~repro.isl.qpoly.Div`), then eliminate columns by
Fourier-Motzkin on dense integer tuples.  Rows are normalised and
deduplicated with the rules of :meth:`Constraint.normalized` and
:meth:`ConstraintSystem.add`, so every answer equals the one exact
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
from itertools import repeat
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


class Constraint:
    """``expr == 0`` (kind ``eq``) or ``expr >= 0`` (kind ``ineq``).

    Instances are immutable by convention.  The integer row (:meth:`row`),
    the coefficient direction and the hash are computed once, on first use,
    and kept in slots; like the caches of ``QPoly`` they are per process,
    and pickling (:meth:`__reduce__`) sends only the expression and kind.
    Two constraints are equal when their kinds and terms are, whatever the
    term order.
    """

    __slots__ = ("expr", "kind", "_row", "_normal", "_direction", "_hash")

    def __init__(self, expr: QPoly, kind: str) -> None:
        if kind not in (EQ, INEQ):
            raise ValueError(f"unknown constraint kind {kind!r}")
        if not expr.is_affine():
            raise ValueError(f"constraint expression must be (quasi-)affine: {expr}")
        self.expr = expr
        self.kind = kind
        self._row: Optional[Tuple[bool, Dict[Symbol, Any], Any]] = None
        self._normal: Optional[bool] = None
        self._direction: Optional[frozenset] = None
        self._hash: Optional[int] = None

    def __reduce__(self) -> Tuple[type, Tuple[QPoly, str]]:
        return (Constraint, (self.expr, self.kind))

    def row(self) -> Tuple[bool, Dict[Symbol, Any], Any]:
        """``(is_eq, {symbol: coefficient}, constant)`` in term order.

        Integral values are ``int``s (a normalised constraint has no other
        kind); the others stay ``Fraction``s.  The dict must not be mutated.
        """
        row = self._row
        if row is None:
            coeffs: Dict[Symbol, Any] = {}
            const: Any = 0
            integral = True
            last = None
            for monomial, value in self.expr.terms.items():
                if value.denominator == 1:
                    value = value.numerator
                else:
                    integral = False
                if monomial:
                    coeffs[monomial[0][0]] = value
                else:
                    const = value
                last = monomial
            row = self._row = (self.kind == EQ, coeffs, const)
            # What ``normalized`` returns as is: coprime integer coefficients
            # with the constant, if any, as the last term; or no variable.
            self._normal = not coeffs or (integral and _gcd(*coeffs.values()) == 1 and (const == 0 or last == ()))
        return row

    def direction(self) -> frozenset:
        """The ``(symbol, coefficient)`` pairs, as an unordered key."""
        direction = self._direction
        if direction is None:
            direction = self._direction = frozenset(self.row()[1].items())
        return direction

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            row = self.row()
            value = self._hash = hash((row[0], self.direction(), row[2]))
        return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        mine, theirs = self.row(), other.row()
        return mine[0] == theirs[0] and mine[2] == theirs[2] and mine[1] == theirs[1]

    def substitute(self, assignment: Mapping[str, Union[QPoly, int, Fraction]]) -> "Constraint":
        """The substituted constraint; ``self`` when no assigned name occurs."""
        expr = self.expr.substitute(assignment)
        return self if expr is self.expr else Constraint(expr, self.kind)

    def negate(self) -> List["Constraint"]:
        """Return constraints describing the integer complement.

        ``expr >= 0`` negates to ``-expr - 1 >= 0``.  ``expr == 0`` negates to
        the *disjunction* ``expr >= 1 or -expr >= 1``; the two branches are
        returned as a list and it is the caller's responsibility to build the
        union.
        """
        is_eq, coeffs, const = self._row or self.row()
        if self._normal and coeffs:
            # Integer rows: the terms ``-expr - 1`` has, without the arithmetic.
            negated = _constraint_of(False, {sym: -value for sym, value in coeffs.items()}, -const - 1)
            return [_constraint_of(False, coeffs, const - 1), negated] if is_eq else [negated]
        if self.kind == INEQ:
            return [Constraint(-self.expr - 1, INEQ)]
        return [Constraint(self.expr - 1, INEQ), Constraint(-self.expr - 1, INEQ)]

    def is_trivially_true(self) -> bool:
        is_eq, coeffs, const = self.row()
        return not coeffs and (const == 0 if is_eq else const >= 0)

    def is_trivially_false(self) -> bool:
        is_eq, coeffs, const = self.row()
        return not coeffs and (const != 0 if is_eq else const < 0)

    def normalized(self) -> "Constraint":
        """Scale to coprime integer coefficients (and tighten inequalities).

        For inequalities the constant term may be tightened to
        ``floor(const / g)`` after dividing by the gcd ``g`` of the variable
        coefficients, which is valid over the integers.

        A constraint that is already in this form is returned as is when its
        constant term is the last term (where the rebuilt expression puts
        it), so the terms keep their order either way.
        """
        is_eq, coeffs, const = self._row or self.row()
        if self._normal:
            return self
        if type(const) is int and all(type(value) is int for value in coeffs.values()):
            return _normalized_row(is_eq, coeffs, const)
        coeffs, const = self.expr.affine_coefficients()
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


def _normalized_row(is_eq: bool, coeffs: Dict[Symbol, int], const: int) -> Constraint:
    """:meth:`Constraint.normalized` of an integer row."""
    g = _gcd(*coeffs.values())
    # An equality whose constant ``g`` does not divide keeps its
    # coefficients, as in ``normalized``.
    if g > 1 and (not is_eq or not const % g):
        coeffs = {sym: value // g for sym, value in coeffs.items()}
        const //= g
    return _constraint_of(is_eq, coeffs, const)


def _constraint_of(is_eq: bool, coeffs: Dict[Symbol, int], const: int) -> Constraint:
    """The constraint of a normalised integer row, with the row cached.

    Its terms are those :meth:`Constraint.normalized` builds: the variables
    in row order, then the constant.
    """
    terms = {((sym, 1),): Fraction(value) for sym, value in coeffs.items()}
    if const:
        terms[()] = Fraction(const)
    constraint = Constraint.__new__(Constraint)
    constraint.expr = QPoly._of(terms)
    constraint.kind = EQ if is_eq else INEQ
    constraint._row = (is_eq, coeffs, const)
    constraint._normal = not coeffs or _gcd(*coeffs.values()) == 1
    constraint._direction = constraint._hash = None
    return constraint


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
        #: For inequalities: :meth:`Constraint.direction` -> index into
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
        """Add ``constraint`` normalised, unless it is trivially true or
        already implied.

        Exact duplicates are dropped, and only the tightest inequality per
        coefficient direction is kept, in the slot of the first one.
        ``pre_normalized`` promises that ``constraint.normalized()`` is
        ``constraint`` or equal to it, e.g. for a constraint stored in
        another system.
        """
        normalized = constraint if pre_normalized else constraint.normalized()
        is_eq, coeffs, const = normalized._row or normalized.row()
        if not coeffs and (const == 0 if is_eq else const >= 0):
            return
        if normalized in self._keys:
            return
        self._keys.add(normalized)
        if not coeffs:
            self._false = True
        elif not is_eq:
            # a.x + c1 >= 0 subsumes a.x + c2 >= 0 whenever c1 <= c2.
            direction = normalized.direction()
            existing_index = self._ineq_by_coeffs.get(direction)
            if existing_index is not None:
                if self.constraints[existing_index].row()[2] > const:
                    self.constraints[existing_index] = normalized
                return
            self._ineq_by_coeffs[direction] = len(self.constraints)
        self.constraints.append(normalized)

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
        """The system of the substituted constraints, added in order.

        Constraints that mention no assigned name are reused as they are.
        The others are substituted on their rows, unless a div mentions an
        assigned name or a value is not affine; either way a constraint
        becomes ``constraint.substitute(assignment).normalized()``, terms
        and their order included.
        """
        out = ConstraintSystem()
        values: Dict[str, Optional[Tuple[Dict[Symbol, Any], Any]]] = {}
        for constraint in self.constraints:
            out.add(_substituted(constraint, assignment, values), pre_normalized=True)
        return out

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
        """Whether ``name`` occurs in a constraint, also inside a div."""
        for constraint in self.constraints:
            coeffs = (constraint._row or constraint.row())[1]
            if name in coeffs:
                return True
            for sym in coeffs:
                if not isinstance(sym, str) and name in sym.variables():
                    return True
        return False

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
                if div.variables() & name_set:
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
        rows, fresh, divs = _expand_divs(self, names, prefix, keep_false=True)
        if not fresh:
            return self, [], {}
        system = ConstraintSystem()
        for is_eq, coeffs, const in rows.rows:
            system.add(_constraint_of(is_eq, coeffs, const), pre_normalized=True)
        return system, fresh, dict(zip(fresh, divs))


def _value_row(value: Union[QPoly, int, Fraction]) -> Optional[Tuple[Dict[Symbol, Any], Any]]:
    """``(coefficients, constant)`` of an affine value, ``None`` otherwise."""
    if not isinstance(value, QPoly):
        value = Fraction(value)
        return {}, value.numerator if value.denominator == 1 else value
    coeffs: Dict[Symbol, Any] = {}
    const: Any = 0
    for monomial, coeff in value.terms.items():
        coeff = coeff.numerator if coeff.denominator == 1 else coeff
        if not monomial:
            const = coeff
        elif len(monomial) == 1 and monomial[0][1] == 1:
            coeffs[monomial[0][0]] = coeff
        else:
            return None
    return coeffs, const


def _substituted(
    constraint: Constraint,
    assignment: Mapping[str, Union[QPoly, int, Fraction]],
    values: Dict[str, Optional[Tuple[Dict[Symbol, Any], Any]]],
) -> Constraint:
    """``constraint.substitute(assignment).normalized()`` for a stored
    (normalised) constraint; ``values`` caches the rows of the values.

    On rows, the terms are merged in the order ``QPoly.substitute`` adds
    them; only the order of the variable terms matters, as normalising puts
    the constant last.  A div that mentions an assigned name, or a value
    that is not affine, takes the ``QPoly`` path.
    """
    is_eq, coeffs, const = constraint._row or constraint.row()
    touched = False
    for sym in coeffs:
        if isinstance(sym, str):
            if sym in assignment:
                touched = True
                if sym not in values:
                    values[sym] = _value_row(assignment[sym])
                if values[sym] is None:
                    break
        elif not assignment.keys().isdisjoint(sym.variables()):
            break
    else:
        if not touched:
            return constraint
        terms: Dict[Symbol, Any] = {}
        get = terms.get
        for sym, coeff in coeffs.items():
            value = values.get(sym) if isinstance(sym, str) else None
            for term, part in value[0].items() if value is not None else ((sym, 1),):
                total = get(term, 0) + coeff * part
                if total:
                    terms[term] = total
                else:
                    del terms[term]
            if value is not None:
                const += coeff * value[1]
        if type(const) is int and all(type(coeff) is int for coeff in terms.values()):
            return _normalized_row(is_eq, terms, const)
        return Constraint(QPoly.from_affine(terms, const), constraint.kind).normalized()
    return constraint.substitute(assignment).normalized()


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
    # The bounds of ``bounds_for`` as rows ``(expr coefficients, expr
    # constant, coeff)``: ``coeff * v >= expr`` or ``coeff * v <= expr``.
    lowers: List[Tuple[Dict[Symbol, int], int, int]] = []
    uppers: List[Tuple[Dict[Symbol, int], int, int]] = []
    out = ConstraintSystem()
    for constraint in system.constraints:
        is_eq, coeffs, const = constraint._row or constraint.row()
        a = coeffs.get(name)
        if not a:
            out.add(constraint, pre_normalized=True)
            continue
        remainder = dict(coeffs)
        del remainder[name]
        if a > 0:
            bound = ({sym: -value for sym, value in remainder.items()}, -const, a)
        else:
            bound = (remainder, const, -a)
        if is_eq or a > 0:
            lowers.append(bound)
        if is_eq or a < 0:
            uppers.append(bound)
    exact = all(low[2] == 1 for low in lowers) or all(up[2] == 1 for up in uppers)
    if require_exact and not exact:
        raise NonExactProjectionError(f"projection of {name} cannot be certified exact")
    for low, low_const, low_coeff in lowers:
        for up, up_const, up_coeff in uppers:
            # low / low_coeff <= v <= up / up_coeff: the terms of
            # ``up * low_coeff - low * up_coeff``, in ``QPoly`` order.
            terms = {sym: value * low_coeff for sym, value in up.items()}
            for sym, value in low.items():
                total = terms.get(sym, 0) - value * up_coeff
                if total:
                    terms[sym] = total
                else:
                    del terms[sym]
            out.add(_normalized_row(False, terms, up_const * low_coeff - low_const * up_coeff), pre_normalized=True)
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
#: Elimination gives up and answers "feasible" past this many variables
#: (after div expansion) ...
_MAX_VARS = 24
#: ... or this many rows.
_MAX_ROWS = 600


class _Rows:
    """Integer rows ``(is_eq, coeffs, const)`` for ``coeffs . x + const``
    ``== 0`` (or ``>= 0``), kept the way a :class:`ConstraintSystem` keeps
    constraints.

    ``coeffs`` is a ``{symbol: int}`` dict while divs are expanded (in the
    term order of the constraint it came from, which decides the order divs
    are expanded in) and a tuple over fixed columns during elimination.
    ``directions`` holds the coefficient key of each row: the tuple itself,
    or the frozenset of a dict's items.
    """

    __slots__ = ("rows", "directions", "contradiction", "keep_false", "_keys", "_ineq_at")

    def __init__(self, keep_false: bool = False) -> None:
        self.rows: List[Tuple[bool, Any, int]] = []
        self.directions: List[Any] = []
        #: Set once a constant row that does not hold was added.
        self.contradiction = False
        #: Whether such rows are kept too (once each, in their slot), as a
        #: :class:`ConstraintSystem` keeps trivially false constraints.
        self.keep_false = keep_false
        self._keys: set = set()
        self._ineq_at: Dict[Any, int] = {}

    def add(self, is_eq: bool, coeffs: Any, const: int, scale: int = 1) -> None:
        """Add ``scale`` (> 0) times a rational row, normalised and deduplicated.

        Normalisation is :meth:`Constraint.normalized` on integers; then, as
        in :meth:`ConstraintSystem.add`, exact duplicates are dropped and only
        the tightest inequality per coefficient direction is kept, in the slot
        of the first one.  Constant rows are not kept, unless
        ``keep_false`` and they do not hold.
        """
        dense = type(coeffs) is tuple
        g = _gcd(*(coeffs if dense else coeffs.values()))
        if not g:
            if const != 0 if is_eq else const < 0:
                self.contradiction = True
                if self.keep_false and (is_eq, _NO_TERMS, const) not in self._keys:
                    self._keys.add((is_eq, _NO_TERMS, const))
                    self.rows.append((is_eq, {}, const))
                    self.directions.append(_NO_TERMS)
            return
        if g > 1 and is_eq and const % g:
            # ``normalized`` keeps such an equality in its lcm-scaled form.
            g = _gcd(scale, g, const)
        if g > 1:
            coeffs = tuple(x // g for x in coeffs) if dense else {sym: x // g for sym, x in coeffs.items()}
            const //= g
        self.insert(is_eq, coeffs, const, coeffs if dense else frozenset(coeffs.items()))

    def insert(self, is_eq: bool, coeffs: Any, const: int, direction: Any) -> None:
        """:meth:`add` for a normalised, non-constant row and its direction.

        Normalising a row kept by :meth:`add` gives the row itself, so rows
        of one ``_Rows`` (and stored constraints) may be inserted into
        another as they are.
        """
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
        self.directions.append(direction)


_NO_TERMS: frozenset = frozenset()


def _first_div(rows: List[Tuple[bool, Dict[Symbol, int], int]], wanted: Optional[set]) -> Optional[Div]:
    """First div (row order, then term order) with a free variable in ``wanted``."""
    for _, coeffs, _ in rows:
        for sym in coeffs:
            if not isinstance(sym, str):
                free = sym.variables()
                if free if wanted is None else not free.isdisjoint(wanted):
                    return sym
    return None


def _definition(div: Div, var: str) -> List[Tuple[Dict[Symbol, int], int]]:
    """``arg - d*var >= 0`` and ``d - 1 - arg + d*var >= 0`` as integer rows,
    both scaled to integers; the argument's part is computed once per div."""
    cached = div._rows
    if cached is None:
        terms: Dict[Symbol, Fraction] = {}
        const = Fraction(0)
        for monomial, value in div.items:
            if not monomial:
                const = value
            elif len(monomial) != 1 or monomial[0][1] != 1:
                raise ValueError(f"constraint expression must be (quasi-)affine: {div}")
            else:
                terms[monomial[0][0]] = value
        scale = math.lcm(const.denominator, *(value.denominator for value in terms.values()))
        low_const = int(const * scale)
        cached = (
            {sym: int(value * scale) for sym, value in terms.items()},
            low_const,
            div.denominator * scale,
            (div.denominator - 1) * scale - low_const,
        )
        object.__setattr__(div, "_rows", cached)
    argument, low_const, step, high_const = cached
    low = dict(argument)
    total = low.get(var, 0) - step
    if total:
        low[var] = total
    else:
        low.pop(var, None)
    return [(low, low_const), ({sym: -value for sym, value in low.items()}, high_const)]


def _expand_divs(
    system: ConstraintSystem,
    names: Optional[Sequence[str]],
    prefix: str = "__q",
    *,
    keep_false: bool = False,
) -> Tuple[_Rows, List[str], List[Div]]:
    """Integer rows of ``system`` with divs renamed to existential columns.

    The divs whose argument mentions ``names`` (every div with a free
    variable when ``names`` is None) are expanded one at a time, the first
    in row order and then term order first, each under the next name
    ``{prefix}{n}``: the div's term in every row is renamed, and the div's
    two defining rows follow, each added the way
    :meth:`ConstraintSystem.add` adds constraints.  The argument keeps its
    own (nested) divs even when they were expanded before; they are then
    expanded again under a new name.  Returns the rows, the fresh names and
    the div of each; divs left unexpanded stay as :class:`Div` symbols.
    The rows are final: their dedup tables need not hold every row, so
    nothing may be added to them.
    """
    rows = _Rows(keep_false)
    # The stored constraints are normalised, distinct, and one per
    # inequality direction: their cached rows are the rows, with no dedup.
    for constraint in system.constraints:
        row = constraint._row or constraint.row()
        if not row[1]:
            # Stored constant constraints are false ones.
            rows.contradiction = True
            if not keep_false:
                continue
        rows.rows.append(row)
        rows.directions.append(constraint._direction or constraint.direction())
    wanted = None if names is None else set(names)
    fresh: List[str] = []
    divs: List[Div] = []
    div = _first_div(rows.rows, wanted)
    while div is not None:
        var = f"{prefix}{len(fresh)}"
        fresh.append(var)
        divs.append(div)
        if wanted is not None:
            wanted.add(var)
        out = _Rows(keep_false)
        out.contradiction = rows.contradiction
        add, insert = out.add, out.insert
        if var in div.variables() or any(var in coeffs for _, coeffs, _ in rows.rows):
            # A variable of the system has the fresh name: re-add every row.
            for row, direction in zip(rows.rows, rows.directions):
                is_eq, coeffs, const = row
                if div in coeffs:
                    # Rename like ``QPoly`` addition: a fresh name that is
                    # already a variable of the row merges into it, in its slot.
                    renamed: Dict[Symbol, int] = {}
                    for sym, value in coeffs.items():
                        if not isinstance(sym, str) and sym == div:
                            sym = var
                        total = renamed.get(sym, 0) + value
                        if total:
                            renamed[sym] = total
                        else:
                            renamed.pop(sym, None)
                    add(is_eq, renamed, const)
                elif coeffs:
                    insert(is_eq, coeffs, const, direction)
                else:
                    add(is_eq, coeffs, const)
        else:
            # Renamed and defining rows all have a ``var`` term and the other
            # rows none, so only the former can meet a duplicate or a row of
            # the same direction: the others are kept as they are, unhashed.
            # Renaming keeps a row normalised.
            for row, direction in zip(rows.rows, rows.directions):
                is_eq, coeffs, const = row
                if div in coeffs:
                    renamed = {
                        (var if not isinstance(sym, str) and sym == div else sym): value
                        for sym, value in coeffs.items()
                    }
                    insert(is_eq, renamed, const, frozenset(renamed.items()))
                else:
                    out.rows.append(row)
                    out.directions.append(direction)
        for coeffs, const in _definition(div, var):
            add(False, coeffs, const)
        rows = out
        div = _first_div(rows.rows, wanted)
    return rows, fresh, divs


def _dense(rows: _Rows) -> Tuple[List[Symbol], List[Tuple[bool, tuple, int]]]:
    """The columns (variables, then unexpanded divs) and the rows over them."""
    symbols = list(dict.fromkeys(sym for _, coeffs, _ in rows.rows for sym in coeffs))
    symbols.sort(key=lambda sym: not isinstance(sym, str))
    return symbols, [(is_eq, tuple(map(coeffs.get, symbols, repeat(0))), const) for is_eq, coeffs, const in rows.rows]


def _eliminate(rows: List[Tuple[bool, tuple, int]], column: int, *, stop: bool = False) -> _Rows:
    """One Fourier-Motzkin step on dense rows.

    The first equality involving ``column`` is substituted into the other
    rows; without one, every lower bound is combined with every upper bound.
    Rows without ``column`` are kept as they are.  ``rows`` must be distinct
    and hold one inequality per direction, as the rows of a ``_Rows`` do.
    With ``stop``, the step ends at the first constant row that does not
    hold, leaving the other rows out.
    """
    out = _Rows()
    add, insert = out.add, out.insert
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
                add(is_eq, tuple(p * x + q * y for x, y in zip(coeffs, pivot_coeffs)), p * const + q * pivot_const, p)
                if stop and out.contradiction:
                    break
            else:
                insert(is_eq, coeffs, const, coeffs)
        return out
    lowers = []
    uppers = []
    kept, directions, ineq_at = out.rows, out.directions, out._ineq_at
    for row in rows:
        coeffs = row[1]
        b = coeffs[column]
        if not b:
            # The rows are distinct, and these come first: keep them as they
            # are.  The combinations are inequalities, so the direction
            # table alone checks them against these.
            if not row[0]:
                ineq_at[coeffs] = len(kept)
            kept.append(row)
            directions.append(coeffs)
        elif b > 0:
            lowers.append(row)
        else:
            uppers.append(row)
    for _, low, low_const in lowers:
        p = low[column]
        for _, up, up_const in uppers:
            q = -up[column]
            add(False, tuple(p * u + q * l for l, u in zip(low, up)), p * up_const + q * low_const)
            if stop and out.contradiction:
                return out
    return out


def _feasible_rows(system: ConstraintSystem, max_vars: int) -> Tuple[bool, Optional[str]]:
    """The answer, and the cut-off (``vars_cutoffs``/``rows_cutoffs``) that gave it, if any."""
    expanded = _expand_divs(system, None)[0]
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
        step = _eliminate(rows, column_of[name], stop=True)
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
    24 variables or elimination grew past 600 rows.
    """
    return _FEASIBILITY_MEMO.info()


def feasible_rational(system: ConstraintSystem) -> bool:
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
        answer, cutoff = _feasible_rows(system, _MAX_VARS)
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
    expanded, fresh, _ = _expand_divs(system, list(others) + [name])
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
    low, high = variable_range(system, name, [n for n in system.variables() if n != name and isinstance(n, str)])
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
