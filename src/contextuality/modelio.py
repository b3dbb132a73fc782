"""Strict JSON documents for empirical models.

A document either spells the model out (measurements, outcome modulus,
contexts, per-context section tables, optionally the partial-monoid
structure) or names a generating set of Pauli operators plus an
optional state.  Unknown keys and malformed entries are rejected with
messages naming the offending field; nothing is silently ignored.
"""

from __future__ import annotations

import json
from math import prod

from .errors import ModelFormatError
from .pauli import (
    GaussianStateVector,
    build_state_dependent_model,
    build_state_independent_model,
    ghz_state,
    parse_pauli,
)
from .pmonoid import CoefficientAction, StructuredModel
from .scenario import EmpiricalModel, MeasurementScenario, _read

_EXPLICIT_KEYS = {"measurements", "outcome_modulus", "contexts", "sections",
                  "partial_monoid"}
_PAULI_KEYS = {"pauli"}
# a state is held as its 2**n amplitudes, and Born tests walk them all
_MAX_STATE_QUBITS = 20


def _is_int(v) -> bool:
    """A JSON integer: ``true`` and ``false`` are Python ints, but not
    integers of the format."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_state_text(spec, n: int) -> GaussianStateVector:
    """A state is "ghz:<n>" or a full list of [re, im] integer pairs, on
    at most ``_MAX_STATE_QUBITS`` qubits."""
    if n > _MAX_STATE_QUBITS:
        raise ModelFormatError(
            f"state on {n} qubits; at most {_MAX_STATE_QUBITS} are supported")
    if isinstance(spec, str):
        if spec == f"ghz:{n}":
            return ghz_state(n)
        raise ModelFormatError(
            f"unknown state {spec!r}; expected 'ghz:{n}' or amplitude pairs")
    if not isinstance(spec, list) or len(spec) != 1 << n:
        raise ModelFormatError("state must list 2**n amplitude pairs")
    entries = []
    for pair in spec:
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_int(v) for v in pair)):
            raise ModelFormatError(
                "state amplitudes must be [re, im] integer pairs")
        entries.append((pair[0], pair[1]))
    state = GaussianStateVector(n, tuple(entries))
    if state.is_zero:
        raise ModelFormatError("state vector must be nonzero")
    return state


def _parse_pauli_block(block) -> StructuredModel:
    if not isinstance(block, dict):
        raise ModelFormatError("'pauli' must be an object")
    unknown = set(block) - {"generators", "state"}
    if unknown:
        raise ModelFormatError(f"unknown keys in 'pauli': {sorted(unknown)}")
    gens = block.get("generators")
    if (not isinstance(gens, list) or not gens
            or not all(isinstance(g, str) for g in gens)):
        raise ModelFormatError("'pauli.generators' must list operator labels")
    try:
        ops = [parse_pauli(g) for g in gens]
    except Exception as exc:
        raise ModelFormatError(f"bad Pauli label: {exc}") from exc
    if len({op.n for op in ops}) != 1:
        raise ModelFormatError("generators must share one qubit count")
    if "state" in block:
        state = parse_state_text(block["state"], ops[0].n)
        return build_state_dependent_model(ops, state)
    return build_state_independent_model(ops)


def _parse_action(block, nmeas: int) -> CoefficientAction:
    """The coefficient action; its group must fit among the ``nmeas``
    measurements it embeds into injectively, checked before it is built."""
    if not isinstance(block, dict):
        raise ModelFormatError("'partial_monoid.action' must be an object")
    unknown = set(block) - {"moduli", "images"}
    if unknown:
        raise ModelFormatError(f"unknown keys in action: {sorted(unknown)}")
    moduli = block.get("moduli")
    images = block.get("images")
    if (not isinstance(moduli, list)
            or not all(_is_int(d) for d in moduli)):
        raise ModelFormatError("'action.moduli' must list integers")
    if (not isinstance(images, list)
            or not all(isinstance(x, str) for x in images)):
        raise ModelFormatError("'action.images' must list measurement labels")
    if prod(moduli) > nmeas:
        raise ModelFormatError(
            f"coefficient group of order {prod(moduli)} cannot embed into "
            f"{nmeas} measurements")
    return CoefficientAction(tuple(moduli), tuple(images))


def _parse_tables(block, contexts, slot) -> tuple:
    """Document context ci's table, filed at scenario index ``slot[ci]``."""
    if not isinstance(block, list) or len(block) != len(contexts):
        raise ModelFormatError(
            "'partial_monoid.contexts' must list one operation table per "
            "context")
    tables = [None] * len(contexts)
    for ci, (ctx, triples) in enumerate(zip(contexts, block)):
        if not isinstance(triples, list):
            raise ModelFormatError(f"table {ci} must list [x, y, xy] triples")
        table = {}
        members = set(ctx)
        for entry in triples:
            if (not isinstance(entry, list) or len(entry) != 3
                    or not all(isinstance(v, str) for v in entry)):
                raise ModelFormatError(
                    f"table {ci} entries must be [x, y, xy] label triples")
            x, y, z = entry
            if not {x, y, z} <= members:
                raise ModelFormatError(
                    f"table {ci} mentions labels outside its context")
            if (x, y) in table and table[(x, y)] != z:
                raise ModelFormatError(
                    f"table {ci} repeats the pair ({x!r}, {y!r}) "
                    f"inconsistently")
            table[(x, y)] = z
        tables[slot[ci]] = table
    return tuple(tables)


def document_to_model(doc) -> EmpiricalModel | StructuredModel:
    """Parse a JSON document (already decoded) into a model.

    Returns a structured model when the document carries monoid data
    (or is generated from Pauli operators), a bare empirical model
    otherwise.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("document must be a JSON object")
    keys = set(doc)
    if "pauli" in keys:
        if keys != _PAULI_KEYS:
            raise ModelFormatError(
                "'pauli' documents must not carry other keys")
        return _parse_pauli_block(doc["pauli"])
    unknown = keys - _EXPLICIT_KEYS
    if unknown:
        raise ModelFormatError(f"unknown document keys: {sorted(unknown)}")
    missing = {"measurements", "outcome_modulus", "contexts",
               "sections"} - keys
    if missing:
        raise ModelFormatError(f"missing document keys: {sorted(missing)}")
    meas = doc["measurements"]
    if (not isinstance(meas, list)
            or not all(isinstance(x, str) for x in meas)):
        raise ModelFormatError("'measurements' must list labels")
    d = doc["outcome_modulus"]
    if not _is_int(d):
        raise ModelFormatError("'outcome_modulus' must be an integer")
    ctxs = doc["contexts"]
    if (not isinstance(ctxs, list)
            or not all(isinstance(c, list)
                       and all(isinstance(x, str) for x in c)
                       for c in ctxs)):
        raise ModelFormatError("'contexts' must list lists of labels")
    try:
        scenario = MeasurementScenario.make(
            tuple(meas), d, tuple(tuple(c) for c in ctxs))
    except Exception as exc:
        raise ModelFormatError(f"bad scenario: {exc}") from exc
    # slot[ci]: the scenario index of the document's context ci
    index = {frozenset(c): k for k, c in enumerate(scenario.contexts)}
    if len(index) != len(ctxs):
        raise ModelFormatError("a context is listed twice")
    slot = [index[frozenset(c)] for c in ctxs]
    secs = doc["sections"]
    if not isinstance(secs, dict):
        raise ModelFormatError(
            "'sections' must map context indices to outcome rows")
    by_index: list[list[tuple[int, ...]] | None] = [None] * len(
        scenario.contexts)
    for key, rows in secs.items():
        try:
            ci = int(key)
        except ValueError:
            ci = None
        if ci is None or key != str(ci):
            raise ModelFormatError(
                f"section key {key!r} is not a context index")
        if not 0 <= ci < len(ctxs):
            raise ModelFormatError(f"section key {key!r} out of range")
        ctx = ctxs[ci]
        if not isinstance(rows, list):
            raise ModelFormatError(f"sections[{key}] must list outcome rows")
        for row in rows:
            if (not isinstance(row, list) or len(row) != len(ctx)
                    or not all(map(_is_int, row))):
                raise ModelFormatError(
                    f"sections[{key}] rows must list one outcome per "
                    f"measurement of context {list(ctx)}")
        # each row read once, in the scenario's label order for its context
        by_index[slot[ci]] = _read(
            rows, [ctx.index(m) for m in scenario.contexts[slot[ci]]])
    holes = [ci for ci, k in enumerate(slot) if by_index[k] is None]
    if holes:
        raise ModelFormatError(f"missing sections for contexts {holes}")
    try:
        model = EmpiricalModel.from_rows(scenario, by_index)
    except Exception as exc:
        raise ModelFormatError(f"bad sections: {exc}") from exc
    if "partial_monoid" not in doc:
        return model
    block = doc["partial_monoid"]
    if not isinstance(block, dict):
        raise ModelFormatError("'partial_monoid' must be an object")
    unknown = set(block) - {"contexts", "action"}
    if unknown:
        raise ModelFormatError(
            f"unknown keys in 'partial_monoid': {sorted(unknown)}")
    if "contexts" not in block or "action" not in block:
        raise ModelFormatError(
            "'partial_monoid' needs 'contexts' and 'action'")
    action = _parse_action(block["action"], len(meas))
    tables = _parse_tables(block["contexts"], ctxs, slot)
    return StructuredModel(model, tables, action)


def model_to_document(model) -> dict:
    """Serialise a model (structured or bare) to a JSON-ready dict."""
    structured = None
    if isinstance(model, StructuredModel):
        structured = model
        model = model.model
    scenario = model.scenario
    doc = {
        "measurements": list(scenario.measurements),
        "outcome_modulus": scenario.outcome_modulus,
        "contexts": [list(c) for c in scenario.contexts],
        "sections": {
            str(ci): [list(row) for row in rows]
            for ci, rows in enumerate(model.rows)
        },
    }
    if structured is not None:
        doc["partial_monoid"] = {
            "contexts": [
                sorted([x, y, z] for (x, y), z in table.items())
                for table in structured.context_ops
            ],
            "action": {
                "moduli": list(structured.action.moduli),
                "images": list(structured.action.generator_images),
            },
        }
    return doc


def loads_model(text: str) -> EmpiricalModel | StructuredModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ModelFormatError("JSON nested too deeply") from exc
    return document_to_model(doc)


def load_model(path) -> EmpiricalModel | StructuredModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    return loads_model(text)


def dumps_model(model, indent: int | None = 2) -> str:
    return json.dumps(model_to_document(model), indent=indent,
                      sort_keys=True)


def dump_model(model, path, indent: int | None = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model, indent=indent))
        fh.write("\n")
