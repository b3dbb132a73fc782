"""JSON document round trips and strict rejection of malformed input."""

import json

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
from contextuality.scenario import EmpiricalModel


def test_round_trip_fixtures_byte_stable(mermin, ghz, hardy):
    for bundle, has_structure in ((mermin, True), (ghz, True),
                                  (hardy, False)):
        obj = bundle.structured if has_structure else bundle.model
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


def _hardy_doc(hardy):
    return model_to_document(hardy.model)


def test_malformed_documents_rejected(hardy):
    base = _hardy_doc(hardy)

    doc = dict(base)
    doc["surprise"] = 1
    with pytest.raises(ModelFormatError, match="surprise"):
        document_to_model(doc)

    doc = dict(base)
    del doc["contexts"]
    with pytest.raises(ModelFormatError):
        document_to_model(doc)

    doc = json.loads(json.dumps(base))
    del doc["sections"]["2"]
    with pytest.raises(ModelFormatError):
        document_to_model(doc)

    doc = json.loads(json.dumps(base))
    doc["sections"]["0"][0] = [0]
    with pytest.raises(ModelFormatError):
        document_to_model(doc)

    doc = json.loads(json.dumps(base))
    doc["sections"]["0"][0] = [0, "x"]
    with pytest.raises(ModelFormatError):
        document_to_model(doc)

    doc = {"pauli": {"generators": ["+XX"]}, "extra": True}
    with pytest.raises(ModelFormatError):
        document_to_model(doc)

    doc = {"pauli": {"generators": ["+XX"], "junk": 0}}
    with pytest.raises(ModelFormatError, match="junk"):
        document_to_model(doc)

    with pytest.raises(ModelFormatError):
        document_to_model([1, 2, 3])


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
    for k, doc in enumerate((bad_row, bad_modulus, bad_state, bad_moduli)):
        text = json.dumps(doc)
        with pytest.raises(ModelFormatError):
            loads_model(text)
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
