"""Built-in example models used by the CLI, the demos and the tests."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import PreconditionError
from .pauli import (
    build_state_dependent_model,
    build_state_independent_model,
    ghz_state,
    parse_pauli,
)
from .pmonoid import StructuredModel
from .scenario import EmpiricalModel, MeasurementScenario


@dataclass(frozen=True, eq=False)
class FixtureBundle:
    name: str
    summary: str
    model: EmpiricalModel
    structured: StructuredModel | None


MERMIN_GENERATORS = (
    "+XI", "+IX", "+XX", "+ZI", "+IZ", "+ZZ", "+XZ", "+ZX", "+YY")


@functools.lru_cache(maxsize=None)
def mermin_square() -> StructuredModel:
    """Two-qubit square of sign Paulis; state independent.

    The closure of the nine generators has 20 elements in 6 maximal
    contexts of 8, with 4 admissible assignments each.
    """
    return build_state_independent_model(
        [parse_pauli(s) for s in MERMIN_GENERATORS])


@functools.lru_cache(maxsize=None)
def ghz_mermin() -> StructuredModel:
    """Three-qubit X/Y words against the GHZ state.

    The generating set is every signed word over {X, Y, I}; its
    closure is the 72 signed words with an even number of Z letters,
    in 30 maximal contexts of 16.
    """
    gens = [parse_pauli(sign + "".join(w))
            for w in itertools.product("XYI", repeat=3) for sign in "+-"]
    return build_state_dependent_model(gens, ghz_state(3))


GHZ_EQUATION_CONTEXT = (
    "+III", "-III", "+XXX", "-XXX", "+XYY", "-XYY", "+YXY", "-YXY",
    "+YYX", "-YYX", "+ZZI", "-ZZI", "+ZIZ", "-ZIZ", "+IZZ", "-IZZ")


@functools.lru_cache(maxsize=None)
def hardy_model() -> EmpiricalModel:
    """Two-party two-setting model with one non-extendable section.

    The support drops (0,0) at the two mixed contexts and (1,1) at the
    primed one, so the all-zero section of the unprimed context cannot
    extend, while every other section can.
    """
    scenario = MeasurementScenario.make(
        ("a1", "a2", "b1", "b2"), 2,
        (("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")))
    rows = {
        ("a1", "b1"): ((0, 0), (0, 1), (1, 0), (1, 1)),
        ("a1", "b2"): ((0, 1), (1, 0), (1, 1)),
        ("a2", "b1"): ((0, 1), (1, 0), (1, 1)),
        ("a2", "b2"): ((0, 0), (0, 1), (1, 0)),
    }
    return EmpiricalModel.from_rows(
        scenario, [rows[ctx] for ctx in scenario.contexts])


_REGISTRY = {
    "mermin": (
        "two-qubit Pauli square, state independent, strongly contextual",
        lambda: FixtureBundle(
            "mermin", _REGISTRY["mermin"][0], mermin_square().model,
            mermin_square())),
    "ghz": (
        "three-qubit X/Y measurements on the GHZ state, strongly contextual",
        lambda: FixtureBundle(
            "ghz", _REGISTRY["ghz"][0], ghz_mermin().model, ghz_mermin())),
    "hardy": (
        "two-party Hardy support, logically contextual",
        lambda: FixtureBundle(
            "hardy", _REGISTRY["hardy"][0], hardy_model(), None)),
}


def list_fixtures() -> list[tuple[str, str]]:
    return [(name, summary) for name, (summary, _) in _REGISTRY.items()]


def get_fixture(name: str) -> FixtureBundle:
    try:
        _summary, build = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise PreconditionError(
            f"unknown fixture {name!r} (known: {known})") from None
    return build()
