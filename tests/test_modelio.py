"""JSON document round trips and strict rejection of malformed input."""

import json
import random
from pathlib import Path

import pytest

from contextuality.errors import ModelFormatError, PreconditionError
from contextuality.modelio import (
    document_to_model,
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    model_to_document,
    parse_state_text,
)
from contextuality.pmonoid import StructuredModel
from contextuality.scenario import EmpiricalModel, Section, classify

DATA = Path(__file__).resolve().parent / "data"


def test_round_trip_fixtures_byte_stable(mermin, ghz, hardy):
    bell = [load_model(DATA / name)
            for name in ("bell_z3_local.json", "bell_z3_pr_box.json")]
    for obj in (mermin.structured, ghz.structured, hardy.model, *bell):
        has_structure = isinstance(obj, StructuredModel)
        text = dumps_model(obj)
        back = loads_model(text)
        assert dumps_model(back) == text
        model = back.model if isinstance(back, StructuredModel) else back
        want = obj.model if isinstance(obj, StructuredModel) else obj
        assert model.scenario.measurements == want.scenario.measurements
        assert model.scenario.contexts == want.scenario.contexts
        assert model.sections == want.sections
        if has_structure:
            assert back.context_ops == obj.context_ops
            assert back.action == obj.action


def test_document_shapes(mermin, hardy):
    doc = model_to_document(mermin.structured)
    assert set(doc) == {"measurements", "outcome_modulus", "contexts",
                        "sections", "partial_monoid"}
    assert doc["outcome_modulus"] == 2
    assert set(doc["partial_monoid"]) == {"contexts", "action"}
    plain = model_to_document(hardy.model)
    assert "partial_monoid" not in plain
    assert sorted(plain["sections"]) == ["0", "1", "2", "3"]


def test_pauli_documents_build_fixtures(mermin, ghz):
    from contextuality.fixtures import MERMIN_GENERATORS

    doc = {"pauli": {"generators": list(MERMIN_GENERATORS)}}
    st = document_to_model(doc)
    assert isinstance(st, StructuredModel)
    assert st.model.sections == mermin.structured.model.sections
    assert st.context_ops == mermin.structured.context_ops

    ghz_gens = sorted({lab for ctx in ghz.model.scenario.contexts
                       for lab in ctx})
    doc2 = {"pauli": {"generators": ghz_gens, "state": "ghz:3"}}
    st2 = document_to_model(doc2)
    assert st2.model.sections == ghz.structured.model.sections


def test_file_round_trip(tmp_path, hardy):
    path = tmp_path / "hardy.json"
    dump_model(hardy.model, path)
    back = load_model(path)
    assert isinstance(back, EmpiricalModel)
    assert back.sections == hardy.model.sections
    raw = json.loads(path.read_text())
    assert raw["outcome_modulus"] == 2


def test_parse_state_text():
    v = parse_state_text("ghz:2", 2)
    assert v.entries == ((1, 0), (0, 0), (0, 0), (1, 0))
    v2 = parse_state_text([[1, 0], [0, -2]], 1)
    assert v2.entries == ((1, 0), (0, -2))
    with pytest.raises(ModelFormatError):
        parse_state_text("ghz:3", 2)
    with pytest.raises(ModelFormatError):
        parse_state_text("w:2", 2)
    with pytest.raises(ModelFormatError):
        parse_state_text([[0, 0], [0, 0]], 1)
    with pytest.raises(ModelFormatError):
        parse_state_text([[1, 0]], 1)
    # refused before any amplitude is allocated or counted
    for n, spec in ((21, "ghz:21"), (64, "ghz:64"), (64, [[1, 0]])):
        with pytest.raises(ModelFormatError) as info:
            parse_state_text(spec, n)
        assert str(info.value) == (
            f"state on {n} qubits; at most 20 are supported")


def _hardy_doc(hardy):
    return model_to_document(hardy.model)


def _rejects(doc, message, load=document_to_model):
    """``load``, by default ``document_to_model``, refuses ``doc`` with
    exactly ``message``."""
    with pytest.raises(ModelFormatError) as info:
        load(doc)
    assert str(info.value) == message


def test_malformed_documents_rejected(hardy, tmp_path):
    """Each malformed document is refused with one exact message; an
    out-of-range outcome is reported on the first offending row, in
    document order, as a section."""
    base = _hardy_doc(hardy)

    doc = dict(base)
    doc["surprise"] = 1
    _rejects(doc, "unknown document keys: ['surprise']")

    doc = dict(base)
    del doc["contexts"]
    _rejects(doc, "missing document keys: ['contexts']")

    doc = json.loads(json.dumps(base))
    del doc["sections"]["2"]
    _rejects(doc, "missing sections for contexts [2]")

    short = ("sections[0] rows must list one outcome per measurement of "
             "context ['a1', 'b1']")
    doc = json.loads(json.dumps(base))
    doc["sections"]["0"][0] = [0]
    _rejects(doc, short)

    doc = json.loads(json.dumps(base))
    doc["sections"]["0"][0] = [0, "x"]
    _rejects(doc, short)

    doc = json.loads(json.dumps(base))
    doc["sections"]["1"][2] = [1, 2]
    doc["sections"]["1"][0] = [-1, 0]
    _rejects(doc, "bad sections: section {a1:-1, b2:0} has outcomes "
                  "outside Z_2")

    doc = json.loads(json.dumps(base))
    doc["sections"]["3"] = []
    _rejects(doc, "bad sections: context ('a2', 'b2') has an empty "
                  "section set")

    doc = {"pauli": {"generators": ["+XX"]}, "extra": True}
    _rejects(doc, "'pauli' documents must not carry other keys")

    doc = {"pauli": {"generators": ["+XX"], "junk": 0}}
    _rejects(doc, "unknown keys in 'pauli': ['junk']")

    _rejects({"pauli": ["+XX"]}, "'pauli' must be an object")
    for gens in ([], ["+XX", 3], "+XX"):
        _rejects({"pauli": {"generators": gens}},
                 "'pauli.generators' must list operator labels")
    _rejects({"pauli": {"generators": ["+XQ"]}},
             "bad Pauli label: bad Pauli word 'XQ'")
    _rejects({"pauli": {"generators": ["+XX", "+ZZZ"]}},
             "generators must share one qubit count")
    _rejects({"pauli": {"generators": ["X" * 64], "state": "ghz:64"}},
             "state on 64 qubits; at most 20 are supported")

    doc = dict(base, measurements="a1")
    _rejects(doc, "'measurements' must list labels")

    doc = dict(base, contexts=[["a1", 3]])
    _rejects(doc, "'contexts' must list lists of labels")

    doc = json.loads(json.dumps(base))
    doc["contexts"][0] = ["a1", "zz"]
    _rejects(doc, "bad scenario: context uses unknown measurements: ['zz']")

    doc = dict(base, sections=[])
    _rejects(doc, "'sections' must map context indices to outcome rows")

    for key, message in (("x", "section key 'x' is not a context index"),
                         ("9", "section key '9' out of range")):
        doc = json.loads(json.dumps(base))
        doc["sections"][key] = []
        _rejects(doc, message)

    doc = json.loads(json.dumps(base))
    doc["sections"]["0"] = {}
    _rejects(doc, "sections[0] must list outcome rows")

    for block, message in (
            ([], "'partial_monoid' must be an object"),
            ({"contexts": [], "action": {}, "x": 1},
             "unknown keys in 'partial_monoid': ['x']"),
            ({"contexts": []},
             "'partial_monoid' needs 'contexts' and 'action'")):
        _rejects(dict(base, partial_monoid=block), message)

    missing = tmp_path / "missing.json"
    _rejects(missing, f"cannot read {missing}: [Errno 2] No such file or "
                      f"directory: '{missing}'", load=load_model)

    _rejects([1, 2, 3], "document must be a JSON object")


def test_pauli_closure_is_bounded():
    """Z on each of ten qubits and -I would close to 2048 operators; nine
    close to 1024, which loads (test_cli's nine-qubit clique)."""
    gens = ["I" * k + "Z" + "I" * (9 - k) for k in range(10)]
    with pytest.raises(PreconditionError) as info:
        document_to_model({"pauli": {"generators": gens + ["-" + "I" * 10]}})
    assert str(info.value) == "closure exceeds 1024 operators"


def test_malformed_structured_tables(mermin):
    base = json.loads(dumps_model(mermin.structured))
    doc = json.loads(json.dumps(base))
    doc["partial_monoid"]["contexts"][0][0][2] = "nope"
    with pytest.raises(ModelFormatError):
        document_to_model(doc)
    doc2 = json.loads(json.dumps(base))
    doc2["partial_monoid"]["action"]["moduli"] = [2, 2]
    with pytest.raises((ModelFormatError, PreconditionError)):
        document_to_model(doc2)

    for action, message in (
            ([2], "'partial_monoid.action' must be an object"),
            ({**base["partial_monoid"]["action"], "junk": 1},
             "unknown keys in action: ['junk']"),
            ({**base["partial_monoid"]["action"], "images": [1]},
             "'action.images' must list measurement labels")):
        doc = json.loads(json.dumps(base))
        doc["partial_monoid"]["action"] = action
        _rejects(doc, message)

    doc = json.loads(json.dumps(base))
    del doc["partial_monoid"]["contexts"][-1]
    _rejects(doc, "'partial_monoid.contexts' must list one operation table "
                  "per context")

    x, y, xy = base["partial_monoid"]["contexts"][0][0]
    other = next(e[2] for e in base["partial_monoid"]["contexts"][0]
                 if e[2] != xy)
    for table, message in (
            ({}, "table 0 must list [x, y, xy] triples"),
            ([[x, y]], "table 0 entries must be [x, y, xy] label triples"),
            ([[x, y, xy], [x, y, other]],
             f"table 0 repeats the pair ({x!r}, {y!r}) inconsistently"),
            (base["partial_monoid"]["contexts"][0][1:],
             f"table 0 misses the pair ({x!r}, {y!r})")):
        doc = json.loads(json.dumps(base))
        doc["partial_monoid"]["contexts"][0] = table
        _rejects(doc, message)


def test_loads_rejects_bad_json():
    with pytest.raises(ModelFormatError):
        loads_model("{not json")


def _permuted(doc, order):
    """The same model with its contexts listed in ``order`` (new position k
    holds old context order[k]) and the labels inside each context, with
    their outcomes, in reverse."""
    out = json.loads(json.dumps(doc))
    out["contexts"] = [doc["contexts"][ci][::-1] for ci in order]
    out["sections"] = {str(k): [row[::-1] for row in doc["sections"][str(ci)]]
                       for k, ci in enumerate(order)}
    if "partial_monoid" in doc:
        out["partial_monoid"]["contexts"] = [
            doc["partial_monoid"]["contexts"][ci][::-1] for ci in order]
    return out


def test_documents_load_whatever_their_context_order(hardy, mermin):
    """Rows and tables are read against the document's own contexts, so a
    document listing its contexts, or the labels inside them, in another
    order loads to the same model and verdicts."""
    from contextuality import classify, cross_check_obstructions, is_avn

    for bundle, obj in ((hardy, hardy.model), (mermin, mermin.structured)):
        doc = model_to_document(obj)
        n = len(doc["contexts"])
        orders = ([1, 0] + list(range(2, n)), list(range(n))[::-1],
                  list(range(1, n)) + [0])
        for order in orders:
            back = document_to_model(_permuted(doc, order))
            assert model_to_document(back) == doc
            model = back.model if isinstance(back, StructuredModel) else back
            assert model.sections == bundle.model.sections
            assert model.rows == bundle.model.rows
            assert classify(model).witnesses == classify(
                bundle.model).witnesses
            assert is_avn(model).avn == is_avn(bundle.model).avn
            if isinstance(back, StructuredModel):
                assert back.context_ops == obj.context_ops
                rows = [(r.context_index, r.section, r.cech_vanishes,
                         r.group_vanishes)
                        for r in cross_check_obstructions(back).rows]
                assert rows == [(r.context_index, r.section, r.cech_vanishes,
                                 r.group_vanishes)
                                for r in cross_check_obstructions(obj).rows]
    witnesses = classify(document_to_model(
        _permuted(model_to_document(hardy.model), [1, 0, 2, 3]))).witnesses
    assert [(ci, s.as_dict()) for ci, s in witnesses] == [
        (0, {"a1": 0, "b1": 0})]


def test_context_listed_twice_is_rejected(hardy):
    doc = json.loads(json.dumps(model_to_document(hardy.model)))
    doc["contexts"].append(doc["contexts"][0][::-1])
    doc["sections"][str(len(doc["contexts"]) - 1)] = [
        row[::-1] for row in doc["sections"]["0"]]
    with pytest.raises(ModelFormatError, match="listed twice"):
        document_to_model(doc)


def test_oversized_coefficient_group_is_rejected_at_load(mermin, tmp_path):
    """The group embeds injectively into the measurements, so a document
    whose group outnumbers them is a format error, raised before the
    group is built; ``validate`` exits 2."""
    from contextuality import cli

    doc = model_to_document(mermin.structured)
    assert len(doc["measurements"]) == 20
    doc["partial_monoid"]["action"]["moduli"] = [64]
    text = json.dumps(doc)
    with pytest.raises(ModelFormatError, match="order 64 cannot embed"):
        loads_model(text)
    path = tmp_path / "oversized.json"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 2


def test_booleans_are_not_integers(hardy, mermin, tmp_path):
    """JSON ``true`` and ``false`` decode to Python ints; the loader still
    rejects them wherever the format asks for an integer, and
    ``validate`` exits 2."""
    from contextuality import cli

    bad_row = model_to_document(hardy.model)
    bad_row["sections"]["0"][0] = [True, False]
    bad_modulus = model_to_document(hardy.model)
    bad_modulus["outcome_modulus"] = True
    bad_state = {"pauli": {"generators": ["+XX", "+ZZ", "-II"],
                           "state": [[1, 0], [0, 0], [0, 0], [True, 0]]}}
    bad_moduli = model_to_document(mermin.structured)
    bad_moduli["partial_monoid"]["action"]["moduli"] = [True]
    messages = (
        "sections[0] rows must list one outcome per measurement of "
        "context ['a1', 'b1']",
        "'outcome_modulus' must be an integer",
        "state amplitudes must be [re, im] integer pairs",
        "'action.moduli' must list integers")
    for k, doc in enumerate((bad_row, bad_modulus, bad_state, bad_moduli)):
        text = json.dumps(doc)
        with pytest.raises(ModelFormatError) as info:
            loads_model(text)
        assert str(info.value) == messages[k]
        path = tmp_path / f"boolean{k}.json"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 2


def test_section_keys_are_canonical_indices(hardy, tmp_path):
    """A section key must be a context index spelled as ``str(index)``;
    ``int`` would read each of these as 0, and the loader rejects them
    and ``validate`` exits 2."""
    from contextuality import cli

    for k, key in enumerate((" 0", "+0", "00", "0_0", "٠", "-0", "0 ")):
        doc = model_to_document(hardy.model)
        doc["sections"][key] = doc["sections"].pop("0")
        text = json.dumps(doc)
        with pytest.raises(ModelFormatError, match="not a context index"):
            loads_model(text)
        path = tmp_path / f"key{k}.json"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 2


def _random_document(rng):
    """An explicit document at d = 2, 3 or 5 whose contexts, and the
    labels inside each, come in shuffled order, with repeated rows."""
    d = rng.choice((2, 3, 5))
    labels = [f"m{k}" for k in range(rng.randint(3, 7))]
    contexts = sorted({tuple(sorted(rng.sample(labels, rng.randint(1, 3))))
                       for _ in range(rng.randint(2, 6))})
    rng.shuffle(contexts)
    contexts = [rng.sample(c, len(c)) for c in contexts]
    sections = {}
    for ci, c in enumerate(contexts):
        rows = [[rng.randrange(d) for _ in c]
                for _ in range(rng.randint(1, 6))]
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows)
        sections[str(ci)] = rows
    rng.shuffle(labels)
    return {"measurements": labels, "outcome_modulus": d,
            "contexts": contexts, "sections": sections}


def test_loaded_rows_match_the_label_reference(mermin, ghz, hardy):
    """A document loads to the rows, sections, equality and hash of its
    sections read one label dict at a time (``_oracles.read_by_label``),
    on the fixtures and on 200 seeded random documents."""
    from _oracles import read_by_label

    docs = [model_to_document(b.model) for b in (mermin, ghz, hardy)]
    rng = random.Random(2101)
    docs += [_random_document(rng) for _ in range(200)]
    assert {doc["outcome_modulus"] for doc in docs} == {2, 3, 5}
    repeats = 0
    for doc in docs:
        model = loads_model(json.dumps(doc))
        want, rows, sections = read_by_label(doc)
        assert model.rows == want.rows == rows
        for got, ref in zip(model.sections, sections, strict=True):
            assert len(got) == len(ref)
            assert all(a == b for a, b in zip(got, ref))
        assert want.sections == sections
        assert model == want and hash(model) == hash(want)
        repeats += sum(map(len, doc["sections"].values())) > sum(
            map(len, rows))
    assert repeats >= 100
    for bundle in (mermin, ghz, hardy):
        want, rows, sections = read_by_label(model_to_document(bundle.model))
        assert bundle.model == want and bundle.model.sections == sections


def test_loading_builds_no_section(monkeypatch):
    """Loading and classifying a noncontextual cycle, and dumping it,
    construct no ``Section``: ``sections`` is built on first read."""
    labels = [f"x{k}" for k in range(12)]
    doc = {"measurements": labels, "outcome_modulus": 2,
           "contexts": [[labels[k], labels[k - 1]] for k in range(12)],
           "sections": {str(k): [[0, 0], [1, 1], [0, 0]]
                        for k in range(12)}}
    made = []
    init = Section.__init__
    monkeypatch.setattr(Section, "__init__",
                        lambda self, *a: made.append(a) or init(self, *a))
    model = loads_model(json.dumps(doc))
    assert classify(model).kind == "noncontextual"
    assert json.loads(dumps_model(model))["sections"]["0"] == [[0, 0],
                                                               [1, 1]]
    assert made == [] and "sections" not in model.__dict__
    assert len(model.sections[0]) == 2 and made


def test_deeply_nested_json_is_a_format_error():
    """A syntactically valid document nested deeper than the parser can
    recurse is refused at load time as bad input, not left to escape as
    a RecursionError."""
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        loads_model("[" * 200_000 + "]" * 200_000)
