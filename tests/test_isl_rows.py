"""Differential tests of the constraint layer on cached integer rows.

Every stored :class:`~repro.isl.constraints.Constraint` keeps an integer row,
and ``ConstraintSystem.add``/``substitute``, div expansion, Fourier-Motzkin
projection and equality substitution work on those rows; ``QPoly``
arithmetic and substitution take shortcuts.  The contract is answer
identity, down to the order of terms: div expansion and elimination follow
term order, so a different order could change fresh names, pivots and
cut-offs.  Each test runs the current code and the old layer kept in
``isl_oracle`` on the same random input (affine systems with nested
``floor`` divs) and compares terms in order, constraint lists and answers.

The hypothesis examples per test follow the active profile (see
``tests/conftest.py``).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import isl_oracle
from isl_oracle import OldSystem, old, to_old
from repro.isl import constraints, lexopt
from repro.isl.constraints import (
    EQ,
    INEQ,
    Constraint,
    ConstraintSystem,
    NonExactProjectionError,
    fm_eliminate,
    substitute_equalities,
)
from repro.isl.qpoly import QPoly, floor_div
from test_isl_feasibility import NAMES, bounded_systems, quasi_affine


def _terms(poly):
    return list(poly.terms.items())


def _listing(system):
    """The stored constraints: kinds and terms, in order."""
    return [(c.kind, _terms(c.expr)) for c in system.constraints]


@st.composite
def values(draw):
    """What a name may be substituted by: a number or a quasi-affine value."""
    return draw(
        st.one_of(
            st.integers(-5, 5),
            st.sampled_from([Fraction(1, 2), Fraction(-3, 4)]),
            quasi_affine(NAMES + ("n",)),
        )
    )


@st.composite
def assignments(draw):
    names = draw(st.lists(st.sampled_from(NAMES + ("m",)), unique=True, max_size=3))
    return {name: draw(values()) for name in names}


@st.composite
def constraint_lists(draw):
    """Constraints with the duplicates, rescaled copies, shifted bounds and
    constants that exercise deduplication and tightening."""
    drawn = draw(st.lists(st.tuples(quasi_affine(), st.sampled_from([EQ, INEQ, INEQ])), min_size=1, max_size=5))
    parts = [Constraint(expr, kind) for expr, kind in drawn]
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(parts))
        change = draw(st.sampled_from(["same", "scaled", "shifted", "reordered", "constant"]))
        if change == "same":
            expr = base.expr
        elif change == "scaled":
            expr = base.expr * draw(st.sampled_from([2, 3, Fraction(1, 2)]))
        elif change == "shifted":
            expr = base.expr + draw(st.integers(-3, 3))
        elif change == "reordered":
            expr = QPoly(dict(reversed(_terms(base.expr))))
        else:
            expr = QPoly.constant(draw(st.integers(-2, 2)))
        parts.append(Constraint(expr, draw(st.sampled_from([base.kind, INEQ]))))
    return draw(st.permutations(parts))


# ----------------------------------------------------------------------
# QPoly
# ----------------------------------------------------------------------
@given(quasi_affine(), quasi_affine(), st.sampled_from([-2, 3, Fraction(2, 3)]), st.sampled_from([2, 3, 8]))
@settings(deadline=None)
def test_qpoly_arithmetic_matches_oracle(poly, other, factor, denominator):
    pairs = [
        (poly + other, isl_oracle.add(poly, other)),
        (poly - other, isl_oracle.sub(poly, other)),
        (poly - poly, isl_oracle.sub(poly, poly)),
        (-poly, isl_oracle.neg(poly)),
        (poly * factor, isl_oracle.mul(poly, factor)),
        (poly * other, isl_oracle.mul(poly, other)),
        (poly + 3, isl_oracle.add(poly, 3)),
        (3 - poly, isl_oracle.sub(isl_oracle.constant(3), poly)),
        (QPoly.constant(0) + poly, isl_oracle.add(isl_oracle.constant(0), poly)),
        (floor_div(poly + other, denominator), isl_oracle.floor_div(isl_oracle.add(poly, other), denominator)),
    ]
    for new, expected in pairs:
        assert _terms(new) == _terms(expected)
        assert new == expected and hash(new) == hash(expected)


@given(quasi_affine(), quasi_affine(), assignments())
@settings(deadline=None)
def test_substitute_matches_oracle(poly, other, assignment):
    for value in (poly, poly * other, other * poly + poly):
        substituted = value.substitute(assignment)
        assert _terms(substituted) == _terms(isl_oracle.substitute(value, assignment))
        if not value.free_variables() & set(assignment):
            assert substituted is value


# ----------------------------------------------------------------------
# Constraints and systems
# ----------------------------------------------------------------------
@given(constraint_lists())
@settings(deadline=None)
def test_constraint_equality_and_hash_match_oracle(parts):
    for a in parts:
        assert _terms(a.normalized().expr) == _terms(old(a).normalized().expr)
        # Raw and stored constraints are negated (the region algebra negates
        # stored ones).
        for b in (a, a.normalized()):
            assert [_terms(c.expr) for c in b.negate()] == [_terms(c.expr) for c in old(b).negate()]
        assert (a.is_trivially_true(), a.is_trivially_false()) == (
            old(a).is_trivially_true(),
            old(a).is_trivially_false(),
        )
        for b in parts:
            assert (a == b) == (old(a) == old(b))
            if a == b:
                assert hash(a) == hash(b) and b in {a} and {a: 1}[b] == 1


@given(constraint_lists(), constraint_lists())
@settings(deadline=None)
def test_system_add_matches_oracle(parts, more):
    system, expected = ConstraintSystem(parts), OldSystem(old(c) for c in parts)
    assert _listing(system) == _listing(expected)
    assert system.has_trivially_false() == expected.has_trivially_false()
    other, other_expected = ConstraintSystem(more), OldSystem(old(c) for c in more)
    for new, oracle in (
        (system.conjoin(other), expected.conjoin(other_expected)),
        (system.conjoin(more), expected.conjoin([old(c) for c in more])),
        (other.copy().conjoin(system), other_expected.copy().conjoin(expected)),
    ):
        assert _listing(new) == _listing(oracle)
        assert new.has_trivially_false() == oracle.has_trivially_false()


@given(bounded_systems(), assignments())
@settings(deadline=None)
def test_system_substitute_matches_oracle(case, assignment):
    system, _ = case
    substituted, expected = system.substitute(assignment), to_old(system).substitute(assignment)
    assert _listing(substituted) == _listing(expected)
    assert substituted.has_trivially_false() == expected.has_trivially_false()
    for name in NAMES + ("n", "m"):
        assert substituted.involves(name) == expected.involves(name)


@given(bounded_systems(), st.sampled_from([None, ["i"], ["j", "k"], list(NAMES)]))
@settings(deadline=None)
def test_div_expansion_matches_oracle(case, names):
    system, _ = case
    rows, contradiction, fresh = isl_oracle.expand_rows(system, names)
    new_rows, new_fresh, divs = constraints._expand_divs(system, names)
    assert (new_rows.rows, new_rows.contradiction, new_fresh) == (rows, contradiction, fresh)
    if names is not None:
        expanded, fresh, mapping = system.expand_divs(names)
        expected, expected_fresh, expected_mapping = to_old(system).expand_divs(names)
        assert _listing(expanded) == _listing(expected)
        assert expanded.has_trivially_false() == expected.has_trivially_false()
        assert (fresh, mapping) == (expected_fresh, expected_mapping)
        assert list(mapping.values()) == divs


# Div names that collide with variables of the system take the slow,
# every-row path of the expansion.
@pytest.mark.parametrize(
    "parts",
    [
        [constraints.eq(floor_div(QPoly.variable("i"), 8), "__q0"), constraints.ge("i", 0)],
        [constraints.ge(floor_div(QPoly.variable("i"), 8) - QPoly.variable("__q0"), 1), constraints.le("i", 9)],
        [constraints.ge(floor_div(QPoly.variable("__q0") * 3 + QPoly.variable("i"), 4), 1), constraints.le("i", 9)],
    ],
)
def test_div_expansion_with_colliding_names_matches_oracle(parts):
    system = ConstraintSystem(parts)
    for names in (None, ["i"], ["i", "__q0"]):
        rows, contradiction, fresh = isl_oracle.expand_rows(system, names)
        new_rows, new_fresh, _ = constraints._expand_divs(system, names)
        assert (new_rows.rows, new_rows.contradiction, new_fresh) == (rows, contradiction, fresh)
        if names is not None:
            expanded, fresh, mapping = system.expand_divs(names)
            expected, expected_fresh, expected_mapping = to_old(system).expand_divs(names)
            assert _listing(expanded) == _listing(expected)
            assert (fresh, mapping) == (expected_fresh, expected_mapping)


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------
def _outcome(function, *args, **options):
    try:
        return function(*args, **options)
    except (NonExactProjectionError, isl_oracle.NonExact, lexopt.LexOptError):
        return "not exact"


# Projection has no cut-offs, so its elimination is doubly exponential in
# the columns: keep the systems to at most five.
@given(bounded_systems(variables=2, extra=3, nested=False), st.data())
@settings(deadline=None)
def test_projection_matches_oracle(case, data):
    system, box = case
    names = sorted(box)
    name = data.draw(st.sampled_from(names))
    for exact in (False, True):
        new = _outcome(fm_eliminate, system, name, require_exact=exact)
        expected = _outcome(isl_oracle.fm_eliminate, to_old(system), name, require_exact=exact)
        assert (new if new == "not exact" else _listing(new)) == (
            expected if expected == "not exact" else _listing(expected)
        )
    eliminate = data.draw(st.permutations(names))
    new, assignment = substitute_equalities(system, eliminate)
    expected, expected_assignment = isl_oracle.substitute_equalities(to_old(system), eliminate)
    assert _listing(new) == _listing(expected)
    assert {k: _terms(v) for k, v in assignment.items()} == {k: _terms(v) for k, v in expected_assignment.items()}
    head, tail = names[0], names[1:]
    new = _outcome(lexopt._project_inner, system, head, tail)
    expected = _outcome(isl_oracle.project_inner, to_old(system), head, tail)
    assert (new if new == "not exact" else _listing(new)) == (
        expected if expected == "not exact" else _listing(expected)
    )


def test_replays_every_gemm_mini_projection(monkeypatch):
    """Every projection and substitution of the previous-access map of
    gemm@mini at budget 300, against the oracle."""
    from repro.api import Session

    projections, substitutions = [], []
    project_inner, substitute = lexopt._project_inner, ConstraintSystem.substitute

    def recording_project(system, head, tail):
        result = project_inner(system, head, tail)
        projections.append((system, head, list(tail), result))
        return result

    def recording_substitute(system, assignment):
        result = substitute(system, assignment)
        substitutions.append((system, dict(assignment), result))
        return result

    monkeypatch.setattr(lexopt, "_project_inner", recording_project)
    monkeypatch.setattr(ConstraintSystem, "substitute", recording_substitute)
    Session().machine((32 * 1024,)).budget(300).no_store().analyze("gemm", "mini")
    monkeypatch.undo()
    assert len(projections) >= 10 and len(substitutions) >= 40
    for system, head, tail, result in projections:
        assert _listing(result) == _listing(isl_oracle.project_inner(to_old(system), head, tail))
    for system, assignment, result in substitutions:
        assert _listing(result) == _listing(to_old(system).substitute(assignment))
