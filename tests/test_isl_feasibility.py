"""Differential tests of the integer-row rational feasibility kernel.

The oracle below is the ``QPoly``/``Fraction`` Fourier-Motzkin elimination
that :func:`repro.isl.constraints.feasible_rational` and
:func:`~repro.isl.constraints.variable_range` used before they moved onto
integer rows, kept verbatim but for running on the constraint classes and
``QPoly`` arithmetic of ``isl_oracle`` (the layer before it kept integer
rows too), so that it shares no code with the kernel.  The integer kernel
must return the same answer
as the oracle on every input, including the conservative "feasible" answers
of the variable and row cut-offs, so that feasibility call sequences, work
units and piece counts do not depend on which implementation runs.

The hypothesis examples per test follow the active profile (see
``tests/conftest.py``); ``HYPOTHESIS_PROFILE=nightly`` runs many more.
"""

import math
import pickle
import sys
import threading
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.isl import constraints
from repro.isl.constraints import (
    EQ,
    INEQ,
    Constraint,
    ConstraintSystem,
    UnboundedSetError,
    eq,
    feasibility_cache_info,
    feasible_rational,
    ge,
    le,
    variable_range,
)
from repro.isl.qpoly import QPoly, floor_div

import isl_oracle
from isl_oracle import OldConstraint, OldSystem, mul, sub, to_old


# ----------------------------------------------------------------------
# Oracle: the QPoly Fourier-Motzkin path, unchanged but for line wrapping
# ----------------------------------------------------------------------
def _feasible_rational_uncached(system: ConstraintSystem, *, max_vars: int = 24) -> bool:
    system = to_old(system)
    names = sorted(n for n in system.variables())
    expanded, fresh, _ = system.expand_divs(names)
    all_names = list(expanded.variables())
    if len(all_names) > max_vars:
        return True
    current = expanded
    while all_names:
        # Greedy minimum-degree ordering keeps the Fourier-Motzkin blow-up low.
        occurrences = {
            name: sum(1 for c in current.constraints if c.expr.coefficient(name)) for name in all_names
        }
        name = min(all_names, key=lambda n: (occurrences[n], n))
        all_names.remove(name)
        current = _fm_eliminate_rational(current, name)
        if current.has_trivially_false():
            return False
        if len(current) > 600:
            return True
    return not current.has_trivially_false()


def _fm_eliminate_rational(system: OldSystem, name: str) -> OldSystem:
    lowers: List[Tuple[QPoly, int]] = []
    uppers: List[Tuple[QPoly, int]] = []
    rest: List[OldConstraint] = []
    equalities: List[Tuple[QPoly, Fraction]] = []
    for constraint in system.constraints:
        expr = constraint.expr
        coeff = expr.coefficient(name)
        if not coeff or expr.degree_in_divs(name):
            rest.append(constraint)
            continue
        remainder = sub(expr, mul(isl_oracle.variable(name), coeff))
        if constraint.kind == EQ:
            equalities.append((remainder, coeff))
        elif coeff > 0:
            lowers.append((isl_oracle.neg(remainder), coeff.numerator))
        else:
            uppers.append((remainder, -coeff.numerator))
    if equalities:
        remainder, coeff = equalities[0]
        value = mul(remainder, Fraction(-1) / coeff)
        substitution = {name: value}
        new_system = OldSystem()
        for constraint in system.constraints:
            if (
                constraint.expr.coefficient(name) == coeff
                and constraint.kind == EQ
                and sub(constraint.expr, mul(isl_oracle.variable(name), coeff)) == remainder
            ):
                continue
            new_system.add(constraint.substitute(substitution))
        return new_system
    out = OldSystem(rest)
    for low_expr, low_coeff in lowers:
        for up_expr, up_coeff in uppers:
            out.add(isl_oracle.ge(sub(mul(up_expr, low_coeff), mul(low_expr, up_coeff)), 0))
    return out


def _variable_range_oracle(system: ConstraintSystem, name: str, others: Sequence[str]) -> Tuple[int, int]:
    expanded, fresh, _ = to_old(system).expand_divs(list(others) + [name])
    current = expanded
    for other in list(others) + fresh:
        current = _fm_eliminate_rational(current, other)
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    for constraint in current.constraints:
        coeff = constraint.expr.coefficient(name)
        if not coeff:
            continue
        remainder = sub(constraint.expr, mul(isl_oracle.variable(name), coeff))
        if not remainder.is_constant():
            continue
        value = -remainder.constant_value() / coeff
        if constraint.kind == EQ:
            lower = value if lower is None else max(lower, value)
            upper = value if upper is None else min(upper, value)
        elif coeff > 0:
            lower = value if lower is None else max(lower, value)
        else:
            upper = value if upper is None else min(upper, value)
    if lower is None or upper is None:
        raise UnboundedSetError(f"variable {name} is not bounded")
    import math

    return math.ceil(lower), math.floor(upper)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _kernel(system: ConstraintSystem, max_vars: int = 24) -> bool:
    """The integer-row kernel, bypassing the memo."""
    return constraints._feasible_rows(system, max_vars)[0]


def _rows_of(system: ConstraintSystem):
    """The non-constant constraints of a system as ``(is_eq, {symbol: coeff}, const)``."""
    rows = []
    for constraint in system.constraints:
        coeffs, const = constraint.expr.affine_coefficients()
        if coeffs:
            rows.append((constraint.kind == EQ, {sym: int(value) for sym, value in coeffs.items()}, int(const)))
    return rows


def _runs(system: ConstraintSystem, max_vars: int = 24):
    """The answer and the whole elimination of the kernel and of the oracle.

    Each run is ``(answer, expanded rows, contradiction, steps)`` with one
    step per eliminated variable: its name, the rows left and whether a
    constant false row appeared (the rows of such a step are not compared:
    the kernel leaves out those after the false one).  Equal runs mean equal
    order, normal forms, deduplication and cut-offs, not only equal answers.
    (Once a false row exists the answer is ``False``; the oracle may take
    one more step.)
    """
    expanded_system = to_old(system).expand_divs(sorted(system.variables()))[0]
    expanded = constraints._expand_divs(system, None)[0]
    symbols, _ = constraints._dense(expanded)
    oracle_steps, kernel_steps = [], []
    oracle_step, kernel_step = _fm_eliminate_rational, constraints._eliminate

    def oracle(current, name):
        result = oracle_step(current, name)
        if not current.has_trivially_false():
            false = result.has_trivially_false()
            oracle_steps.append((name, None if false else _rows_of(result), false))
        return result

    def kernel(rows, column, **options):
        result = kernel_step(rows, column, **options)
        dicts = [(e, {symbols[j]: v for j, v in enumerate(c) if v}, k) for e, c, k in result.rows]
        # The kernel stops a step at its first false row: the rest is unused.
        kernel_steps.append((symbols[column], None if result.contradiction else dicts, result.contradiction))
        return result

    globals()["_fm_eliminate_rational"], constraints._eliminate = oracle, kernel
    try:
        expected = _feasible_rational_uncached(system, max_vars=max_vars)
        answer = constraints._feasible_rows(system, max_vars)[0]
    finally:
        globals()["_fm_eliminate_rational"], constraints._eliminate = oracle_step, kernel_step
    return (
        (answer, [(e, dict(c), k) for e, c, k in expanded.rows], expanded.contradiction, kernel_steps),
        (expected, _rows_of(expanded_system), expanded_system.has_trivially_false(), oracle_steps),
    )


def _range_or_none(function, system, name, others):
    try:
        return function(system, name, others)
    except UnboundedSetError:
        return None


def _holds(system: ConstraintSystem, point) -> bool:
    for constraint in system.constraints:
        value = constraint.expr.evaluate(point)
        if value != 0 if constraint.kind == EQ else value < 0:
            return False
    return True


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty feasibility memo, with zeroed counters, for one test."""
    monkeypatch.setattr(constraints, "_FEASIBILITY_MEMO", constraints._FeasibilityMemo(200_000))


NAMES = ("i", "j", "k")


@st.composite
def affine(draw, names, *, coeff=3, const=12):
    expr = QPoly.constant(draw(st.integers(-const, const)))
    for name in names:
        expr = expr + QPoly.variable(name) * draw(st.integers(-coeff, coeff))
    return expr


@st.composite
def bounded_systems(draw, *, width=5, variables=3, extra=4, nested=True):
    """A box over one to ``variables`` variables plus up to ``extra``
    affine and floor-div constraints.

    Each variable lies in ``[lo, lo + span]`` with ``span`` from -1 (empty)
    to ``width``; the extra constraints compare ``floor(e/d)`` terms (also
    ``nested`` ones) with affine expressions, as cache-line indices do.
    """
    names = NAMES[: draw(st.integers(1, variables))]
    box = {}
    parts = []
    for name in names:
        lo = draw(st.integers(-4, 6))
        hi = lo + draw(st.integers(-1, width))
        box[name] = (lo, hi)
        parts += [ge(name, lo), le(name, hi)]
    for _ in range(draw(st.integers(0, extra))):
        expr = draw(affine(names))
        if draw(st.booleans()):
            div = floor_div(draw(affine(names)), draw(st.sampled_from([2, 3, 4, 8])))
            if nested and draw(st.integers(0, 3)) == 0:
                div = floor_div(div + draw(affine(names, const=4)), draw(st.sampled_from([2, 8])))
            expr = expr + div * draw(st.sampled_from([-2, -1, 1, 3]))
        parts.append(eq(expr, 0) if draw(st.integers(0, 3)) == 0 else ge(expr, 0))
    return ConstraintSystem(parts), box


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@given(bounded_systems(), st.sampled_from([24, 3, 2]))
@settings(deadline=None)
def test_kernel_matches_oracle(case, max_vars):
    system, _ = case
    if system.has_trivially_false():
        return
    kernel, oracle = _runs(system, max_vars)
    assert kernel == oracle


# ``variable_range`` has no cut-offs, so its elimination is doubly exponential
# in the columns: keep the systems to at most five.
@given(bounded_systems(variables=2, extra=3, nested=False), st.data())
@settings(deadline=None)
def test_variable_range_matches_oracle(case, data):
    system, box = case
    names = sorted(box)
    name = data.draw(st.sampled_from(names))
    others = [n for n in names if n != name]
    assert _range_or_none(variable_range, system, name, others) == _range_or_none(
        _variable_range_oracle, system, name, others
    )


@given(bounded_systems(width=4))
@settings(deadline=None)
def test_integer_point_implies_feasible(case):
    system, box = case
    names = sorted(box)
    ranges = [range(box[n][0], box[n][1] + 1) for n in names]
    if any(_holds(system, dict(zip(names, point))) for point in product(*ranges)):
        assert not system.has_trivially_false()
        assert _kernel(system)


def test_replays_every_gemm_mini_call(monkeypatch, fresh_memo):
    """Every distinct input gemm@mini sends to the kernel at budget 300."""
    from repro.api import Session

    calls = []
    feasible_rows = constraints._feasible_rows

    def recording(system, max_vars):
        result = feasible_rows(system, max_vars)
        calls.append((system, max_vars, result[0]))
        return result

    monkeypatch.setattr(constraints, "_feasible_rows", recording)
    result = Session().machine((32 * 1024,)).budget(300).no_store().analyze("gemm", "mini")
    monkeypatch.undo()
    assert result.used_fallback
    assert len(calls) > 50
    for system, max_vars, answer in calls:
        kernel, oracle = _runs(system, max_vars)
        assert answer == kernel[0]
        assert kernel == oracle, system


# ----------------------------------------------------------------------
# Edge cases the random systems rarely reach
# ----------------------------------------------------------------------
def _div(expr, d):
    return floor_div(expr, d)


@pytest.mark.parametrize(
    "parts",
    [
        # An equality whose constant the coefficient gcd does not divide.
        [eq(QPoly.variable("i") * 2 + QPoly.variable("j") * 4, 1), ge("i", 0), le("i", 5)],
        # ... and one that becomes so only after substituting another.
        [
            eq(QPoly.variable("i") * 3 + QPoly.variable("j") * 2, 1),
            eq(QPoly.variable("i") * 2 + QPoly.variable("k") * 6, 3),
            ge("j", -9),
            le("j", 9),
        ],
        # Rationally feasible, integer-empty: the answer must stay True.
        [ge(QPoly.variable("i") * 2, 1), le(QPoly.variable("i") * 2, 1)],
        # A fresh div name colliding with a variable of the system.
        [eq(_div(QPoly.variable("i"), 8), QPoly.variable("__q0")), ge("i", 0), le("i", 20), ge("__q0", 3)],
        # ... so that the renamed row turns constant and false, before a second div.
        [ge(_div(QPoly.variable("i"), 8) - QPoly.variable("__q0"), 1), ge(_div(QPoly.variable("j"), 4), 0), le("j", 9)],
        # Substituting ``2a + 2b + 1 = 0`` leaves ``8b + 4 = 0`` at scale 2, which
        # ``Constraint.normalized`` keeps as ``4b + 2 = 0``.
        [
            eq(QPoly.variable("a") * 2 + QPoly.variable("b") * 2, -1),
            eq(QPoly.variable("a") * 2 + QPoly.variable("b") * 6, -3),
        ],
        # Substitution makes an equality an exact duplicate of another.
        [eq("i", "j"), eq("i", "k"), eq("j", "k"), ge("k", 0), le("k", 4)],
        # A div nested in another div's argument, and the same inner div at top level.
        [
            ge(_div(_div(QPoly.variable("i"), 2) + QPoly.variable("j"), 8), 1),
            le(_div(QPoly.variable("i"), 2), 3),
            ge("i", 0),
            le("j", 9),
            ge("j", 0),
        ],
        # A div with a fractional argument coefficient.
        [ge(_div(QPoly.variable("i") * Fraction(1, 2) + 1, 3), 1), le("i", 10), ge("i", -10)],
    ],
)
def test_edge_cases_match_oracle(parts):
    system = ConstraintSystem(parts)
    kernel, oracle = _runs(system)
    assert kernel == oracle
    for name in sorted(system.variables()):
        others = [n for n in sorted(system.variables()) if n != name]
        assert _range_or_none(variable_range, system, name, others) == _range_or_none(
            _variable_range_oracle, system, name, others
        )


# ----------------------------------------------------------------------
# Memo and cut-off counters
# ----------------------------------------------------------------------
def _interval(name, lo, hi):
    return ConstraintSystem([ge(name, lo), le(name, hi)])


def test_memo_keeps_caching_at_its_cap(monkeypatch):
    monkeypatch.setattr(constraints, "_FEASIBILITY_MEMO", constraints._FeasibilityMemo(2))
    first, second, third = (_interval("i", 0, n) for n in (1, 2, 3))
    for system in (first, second, third):
        assert feasible_rational(system)
    info = feasibility_cache_info()
    assert (info["misses"], info["evictions"], info["size"], info["maxsize"]) == (3, 1, 2, 2)
    assert feasible_rational(third)
    assert feasibility_cache_info()["hits"] == 1
    # ``second`` is now the least recently used entry; ``first`` was evicted.
    assert feasible_rational(first)
    info = feasibility_cache_info()
    assert (info["hits"], info["misses"], info["evictions"]) == (1, 4, 2)
    assert feasible_rational(third)
    assert feasibility_cache_info()["hits"] == 2


def test_variable_cutoff_is_counted(fresh_memo):
    names = [f"x{n}" for n in range(25)]
    parts = [ge(names[0], 0), le(names[-1], 10)]
    parts += [le(QPoly.variable(a), QPoly.variable(b)) for a, b in zip(names, names[1:])]
    system = ConstraintSystem(parts)
    assert feasible_rational(system)
    assert feasibility_cache_info()["vars_cutoffs"] == 1
    assert _feasible_rational_uncached(system)
    assert feasible_rational(system)  # a memo hit does not count again
    assert feasibility_cache_info()["vars_cutoffs"] == 1


def test_row_cutoff_is_counted(fresh_memo):
    # Every variable has as many lower as upper bounds, so each elimination
    # step multiplies the rows until the 600-row cut-off answers "feasible".
    names = ["a", "b", "c", "d", "e"]
    parts = []
    for index, name in enumerate(names):
        for shift in range(6):
            other = QPoly.variable(names[(index + shift + 1) % len(names)]) * (shift + 1)
            parts.append(ge(QPoly.variable(name) * (shift + 2) - other, -shift))
            parts.append(le(QPoly.variable(name) * (shift + 3) - other, 40 + shift))
    system = ConstraintSystem(parts)
    assert feasible_rational(system)
    assert feasibility_cache_info()["rows_cutoffs"] == 1
    kernel, oracle = _runs(system)
    assert kernel == oracle
    assert len(kernel[3][-1][1]) > 600


def test_memo_counts_every_call_under_threads(monkeypatch):
    """Eight threads sharing a small memo lose no counter update."""
    monkeypatch.setattr(constraints, "_FEASIBILITY_MEMO", constraints._FeasibilityMemo(16))
    systems = [_interval("i", 0, n) for n in range(40)]
    rounds = 60

    def work():
        for _ in range(rounds):
            for system in systems:
                assert feasible_rational(system)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    info = feasibility_cache_info()
    assert info["hits"] + info["misses"] == 8 * rounds * len(systems)
    assert info["size"] == 16
    assert info["evictions"] <= info["misses"] - info["size"]


# ----------------------------------------------------------------------
# Canonical forms and hashes are computed once per object
# ----------------------------------------------------------------------
@st.composite
def quasi_affine(draw, names=NAMES):
    """An affine expression plus ``floor`` divs, some nested, over ``names``."""
    expr = draw(affine(names))
    for _ in range(draw(st.integers(0, 3))):
        div = floor_div(draw(affine(names)), draw(st.sampled_from([2, 3, 8])))
        if draw(st.booleans()):
            outer = div * draw(st.sampled_from([1, 3])) + draw(affine(names, const=4))
            div = floor_div(outer, draw(st.sampled_from([2, 4])))
        expr = expr + div * draw(st.sampled_from([-2, -1, 1, 3]))
    return expr * draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)]))


def _recomputed_items(poly: QPoly):
    """``QPoly._canonical_items`` as it was computed before it was cached,
    on a pickled copy, so that no div of it has a cached sort key yet."""
    copy = pickle.loads(pickle.dumps(poly))

    def symbol_key(sym):
        return (0, sym) if isinstance(sym, str) else (1, repr(sym))

    return tuple(sorted(copy.terms.items(), key=lambda it: (len(it[0]), [(symbol_key(s), e) for s, e in it[0]])))


@given(quasi_affine(), quasi_affine(), st.integers(-3, 3))
@settings(deadline=None)
def test_cached_canonical_form_and_hash_match_a_recomputation(poly, other, shift):
    # Warm the caches of the operands first: results built from them must
    # compute their own canonical form, never inherit a stale one.
    for operand in (poly, other):
        hash(operand)
        operand._canonical_items()
    derived = [
        poly,
        poly + other,
        poly - poly,
        poly * 3,
        -other,
        poly.substitute({"i": QPoly.variable("j") + shift}),
        floor_div(poly + other, 4),
    ]
    for value in derived:
        items = _recomputed_items(value)
        assert value._canonical_items() == items
        assert value._canonical_items() is value._canonical_items()
        assert hash(value) == hash(items) == hash(value)
        assert value == QPoly(dict(value.terms)) and hash(QPoly(dict(value.terms))) == hash(value)
        for div in value.divs():
            assert hash(div) == hash((div.items, div.denominator))
            assert div.sort_key() == (1, repr(div))


def _normalized_uncached(constraint: Constraint) -> Constraint:
    """``Constraint.normalized`` before it returned normalised constraints as is."""
    coeffs, const = constraint.expr.affine_coefficients()
    if not coeffs:
        return constraint
    lcm = 1
    for d in [c.denominator for c in coeffs.values()] + [const.denominator]:
        lcm = lcm * d // math.gcd(lcm, d)
    scaled = {sym: c * lcm for sym, c in coeffs.items()}
    scaled_const = const * lcm
    gcd = 0
    for c in scaled.values():
        gcd = math.gcd(gcd, abs(c.numerator))
    if gcd > 1:
        scaled = {sym: Fraction(c.numerator // gcd) for sym, c in scaled.items()}
        if constraint.kind == INEQ:
            scaled_const = Fraction(scaled_const.numerator // (gcd * scaled_const.denominator))
        elif scaled_const.numerator % gcd:
            scaled = {sym: c * gcd for sym, c in scaled.items()}
        else:
            scaled_const = scaled_const / gcd
    return Constraint(QPoly.from_affine(scaled, scaled_const), constraint.kind)


@given(st.lists(st.tuples(quasi_affine(), st.sampled_from([EQ, INEQ, INEQ])), min_size=1, max_size=6))
@settings(deadline=None)
def test_normalized_fast_path_matches_the_slow_path(parts):
    fast_system, slow_system = ConstraintSystem(), ConstraintSystem()
    for expr, kind in parts:
        constraint = Constraint(expr, kind)
        fast, slow = constraint.normalized(), _normalized_uncached(constraint)
        # Same terms in the same order: div expansion follows term order.
        assert list(fast.expr.terms.items()) == list(slow.expr.terms.items())
        assert fast.kind == slow.kind
        assert list(fast.normalized().expr.terms.items()) == list(fast.expr.terms.items())
        fast_system.add(fast, pre_normalized=True)
        slow_system.add(slow, pre_normalized=True)
    assert fast_system.constraints == slow_system.constraints
    assert fast_system.has_trivially_false() == slow_system.has_trivially_false()
    for names in (None, ["i"], ["j", "k"]):
        fast_rows, fast_fresh, _ = constraints._expand_divs(fast_system, names)
        slow_rows, slow_fresh, _ = constraints._expand_divs(slow_system, names)
        assert (fast_rows.rows, fast_rows.contradiction, fast_fresh) == (
            slow_rows.rows,
            slow_rows.contradiction,
            slow_fresh,
        )


def test_normalized_returns_a_normal_constraint_itself():
    i, j = QPoly.variable("i"), QPoly.variable("j")
    normal = Constraint(i * 2 - j * 3 + 5, INEQ)
    assert normal.normalized() is normal
    # Normal, but with the constant term first: rebuilt with it last.
    constant_first = Constraint(QPoly.constant(5) + i * 2 - j * 3, INEQ)
    rebuilt = constant_first.normalized()
    assert rebuilt is not constant_first
    assert list(rebuilt.expr.terms) == list(normal.expr.terms)
    assert Constraint(i * 2 - j * 4 + 5, INEQ).normalized().expr == i - j * 2 + 2


@given(bounded_systems(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_reordered_constraints_hit_the_feasibility_memo(case, random):
    system, _ = case
    assume(not system.has_trivially_false())
    # Fresh objects (no cached hash, no shared identity), in another order.
    parts = pickle.loads(pickle.dumps(system.constraints))
    random.shuffle(parts)
    reordered = ConstraintSystem(parts)
    assert frozenset(reordered.constraints) == frozenset(system.constraints)
    answer = feasible_rational(system)
    before = feasibility_cache_info()
    assert feasible_rational(reordered) == answer
    after = feasibility_cache_info()
    assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])


def test_trivially_false_is_recorded_on_add_and_copy():
    system = ConstraintSystem([ge("i", 0), le("i", 3)])
    assert not system.has_trivially_false()
    clone = system.copy()
    clone.add(ge(QPoly.constant(-1), 0))
    assert clone.has_trivially_false() and not system.has_trivially_false()
    assert clone.copy().has_trivially_false()
    assert clone.conjoin(system).has_trivially_false()
    assert system.conjoin(clone).has_trivially_false()
    assert ConstraintSystem([eq(QPoly.constant(2), 0)]).has_trivially_false()
    assert not ConstraintSystem([eq(QPoly.constant(0), 0), ge(QPoly.constant(4), 0)]).has_trivially_false()
