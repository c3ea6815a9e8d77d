"""Pickled polyhedral values carry no per-process cache to another process.

``QPoly`` and ``Div`` compute their canonical form, hash and sort key once
and keep them; a ``Div`` also keeps its free variables and defining integer
rows, and a ``Constraint`` its integer row, direction and hash.  ``str``
hashes are randomised per process, and scops,
systems and polynomials are pickled into batch, server and piece-worker
pools, so those caches must stay behind when a value is pickled.  The test
below warms every cache here, pickles the values and checks them in a child
process that runs under a different ``PYTHONHASHSEED``; the child imports
this module for :func:`build` and :func:`check_in_child`.
"""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from repro.engine.cache import canonical_key
from repro.engine.store import stable_digest
from repro.isl.constraints import (
    ConstraintSystem,
    _expand_divs,
    eq,
    feasibility_cache_info,
    feasible_rational,
    ge,
    le,
)
from repro.isl.qpoly import QPoly, floor_div

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src"


def build() -> dict:
    """A ``QPoly`` with nested divs, its outer ``Div``, a ``Constraint`` and a
    ``ConstraintSystem``, built from scratch."""
    i, j, n = (QPoly.variable(name) for name in ("i", "j", "n"))
    inner = floor_div(i * 3 + j + 5, 8)
    poly = floor_div(inner * 2 + i - n, 4) * 3 + j * Fraction(1, 2) - 7
    div = max(poly.divs(), key=lambda d: len(repr(d)))
    constraint = ge(poly * 2 + n * 8, 0)
    system = ConstraintSystem(
        [ge(i, 0), le(i, n - 1), ge(j, 0), le(j, i), ge(n, 1), le(n, 64), constraint, eq(floor_div(i + j, 2), inner)]
    )
    return {"poly": poly, "div": div, "constraint": constraint, "system": system}


def digests(values: dict) -> dict:
    """Process-stable digests of ``values`` (the store's ``stable_digest``)."""
    constraint = values["constraint"]
    return {
        "poly": stable_digest(values["poly"]),
        "div": stable_digest(values["div"]),
        "constraint": stable_digest((constraint.kind, constraint.expr)),
        "system": stable_digest(canonical_key(values["system"], ("i", "j"))),
    }


def warm(values: dict) -> None:
    """Fill every per-object cache and the feasibility memo."""
    for value in (values["poly"], values["div"], values["constraint"], *values["system"].constraints):
        hash(value)
    values["poly"]._canonical_items()
    values["div"].sort_key()
    values["div"].variables()
    for constraint in (values["constraint"], *values["system"].constraints):
        constraint.row()
        constraint.direction()
    values["system"].expand_divs(["i", "j"])
    feasible_rational(values["system"])


def rows(system) -> list:
    """The integer rows of a system after expanding every div."""
    return _expand_divs(system, None)[0].rows


def check_in_child(expected_json: str) -> None:
    """Run in the child: unpickle standard input and compare with fresh values."""
    expected = json.loads(expected_json)
    assert hash("i") != expected["str_hash"], "the child must hash strings differently"
    loaded = pickle.loads(sys.stdin.buffer.read())
    fresh = build()
    for name in ("poly", "div", "constraint"):
        old, new = loaded[name], fresh[name]
        assert old == new and hash(old) == hash(new), name
        assert old in {new} and new in {old}, name
        assert {old: name}[new] == name and {new: name}[old] == name
    old_system, new_system = loaded["system"], fresh["system"]
    assert set(old_system.constraints) == set(new_system.constraints)
    for old, new in zip(old_system.constraints, new_system.constraints):
        assert old == new and hash(old) == hash(new) and old in {new} and {new: 1}[old] == 1
        assert old.row() == new.row() and old.direction() == new.direction()
    assert rows(old_system) == rows(new_system)
    assert {frozenset(old_system.constraints): 1}[frozenset(new_system.constraints)] == 1
    # The unpickled system's own dedup tables work: adding what it holds is a no-op.
    merged = old_system.conjoin(new_system)
    assert merged.constraints == old_system.constraints
    before = feasibility_cache_info()
    answer = feasible_rational(new_system)
    middle = feasibility_cache_info()
    assert feasible_rational(old_system) == answer
    after = feasibility_cache_info()
    assert (middle["hits"], middle["misses"]) == (before["hits"], before["misses"] + 1)
    assert (after["hits"], after["misses"]) == (middle["hits"] + 1, middle["misses"])
    assert digests(loaded) == digests(fresh) == expected["digests"]
    print("ok")


def test_pickling_drops_the_caches():
    values = build()
    warm(values)
    poly, div = values["poly"], values["div"]
    assert poly._hash is not None and "_hash" in vars(div) and "_key" in vars(div)
    loaded_poly = pickle.loads(pickle.dumps(poly))
    assert loaded_poly._hash is None and loaded_poly._items is None
    assert loaded_poly == poly and hash(loaded_poly) == hash(poly)
    assert list(loaded_poly.terms) == list(poly.terms)
    # On its own, nothing hashes a div while it is unpickled (inside a
    # polynomial, the rebuilt ``terms`` dict hashes it afresh).
    assert {"_hash", "_key", "_variables", "_rows"} <= set(vars(div))
    loaded_div = pickle.loads(pickle.dumps(div))
    assert set(vars(loaded_div)) == {"items", "denominator"}
    assert loaded_div == div and hash(loaded_div) == hash(div) and loaded_div.sort_key() == div.sort_key()
    # Constraints send their expression and kind only.
    for constraint in (values["constraint"], *values["system"].constraints):
        assert None not in (constraint._row, constraint._normal, constraint._direction, constraint._hash)
        loaded = pickle.loads(pickle.dumps(constraint))
        assert (loaded._row, loaded._normal, loaded._direction, loaded._hash) == (None, None, None, None)
        assert loaded == constraint and hash(loaded) == hash(constraint)
        assert list(loaded.expr.terms.items()) == list(constraint.expr.terms.items())


def test_unpickled_values_rehash_under_another_hash_seed():
    values = build()
    warm(values)
    payload = pickle.dumps(values)
    expected = {"digests": digests(values), "str_hash": hash("i")}
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    script = "import sys; sys.path.insert(0, sys.argv[1]); import test_isl_pickle as t; t.check_in_child(sys.argv[2])"
    result = subprocess.run(
        [sys.executable, "-c", script, str(TESTS), json.dumps(expected)],
        input=payload,
        capture_output=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().split() == ["ok"]
