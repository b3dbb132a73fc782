"""Command-line interface: exit codes, text and structured output."""

import json
import random
import time

import pytest

from contextuality import cli
from contextuality.cech import CechAnalyzer
from contextuality.errors import InternalCheckError
from contextuality.mcohom import CoboundarySolver, GroupObstructionAnalyzer
from contextuality.modelio import dumps_model
from contextuality.pauli import build_state_independent_model, parse_pauli

from test_mcohom import DATA, twisted_document


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    for name in ("mermin", "ghz", "hardy"):
        assert name in out


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", "mermin")
    assert code == 0 and "ok" in out


def test_validate_signalling_file(tmp_path, capsys):
    doc = {
        "measurements": ["a", "b", "c"],
        "outcome_modulus": 2,
        "contexts": [["a", "b"], ["b", "c"]],
        "sections": {
            "0": [[0, 0]],
            "1": [[1, 0]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "signal" in (out + err).lower()


def test_analyze_default_classify(capsys):
    code, out, _ = run(capsys, "analyze", "hardy")
    assert code == 0
    assert "logically_contextual" in out
    assert "no-signalling: ok" in out


def test_analyze_hardy_auto_structured(capsys):
    """The Hardy witness vanishes under --cech and is marked a false
    positive, whether the query picks it by --section auto or by index,
    without --classify."""
    for select in (("--section", "auto"),
                   ("--context", "0", "--section", "0")):
        code, out, _ = run(capsys, "analyze", "hardy", "--cech", *select,
                           "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"payload", "timings"}
        assert "classification" not in doc["payload"]
        rows = doc["payload"]["cech"]
        assert len(rows) == 1
        row = rows[0]
        assert row["vanishes"] and row["false_positive"]
        assert row["section"] == {"a1": 0, "b1": 0}
        assert row["collapse"] == {"a1": 0, "a2": 0, "b1": 0, "b2": 0}
        assert sum(f["coefficient"] for f in row["family"]
                   if f["context"] == 0) == 1
        assert "cech" in doc["timings"]


def test_analyze_mermin_all(capsys):
    code, out, _ = run(capsys, "analyze", "mermin", "--all",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["classification"]["kind"] == "strongly_contextual"
    assert payload["avn"]["avn"] is True
    assert payload["avn"]["equations"] == 36
    assert payload["crosscheck"] == {
        "sections": 24, "consistent": True,
        "cech_vanishing": 0, "group_vanishing": 0,
        "group_paths": {"absolute": 24, "relative": 0, "shortcut": 0}}
    assert len(payload["cech"]) == 24
    assert all(not r["vanishes"] for r in payload["cech"])
    assert len(payload["group"]) == 24
    assert all(not r["vanishes"] for r in payload["group"])


def test_analyze_all_sets_up_one_cech_analyzer(tmp_path, capsys, mermin,
                                               monkeypatch):
    """``--all`` on a freshly loaded document answers the Cech queries
    and the cross-check from one analyzer, the model's own."""
    path = tmp_path / "mermin.json"
    path.write_text(dumps_model(mermin.structured))
    made = []
    real = CechAnalyzer.__init__

    def counted(self, model):
        made.append(self)
        real(self, model)

    monkeypatch.setattr(CechAnalyzer, "__init__", counted)
    code, out, _ = run(capsys, "analyze", str(path), "--all")
    assert code == 0 and "cross-check: 24 sections" in out
    assert len(made) == 1


def test_analyze_all_sets_up_one_analyzer_of_each_kind(tmp_path, capsys,
                                                      monkeypatch):
    """``--all`` on a structured document answers its Cech and group
    queries and the cross-check from the two analyzers the model holds."""
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"pauli": {
        "generators": ["+XI", "+IX", "+ZI", "-II"]}}))
    made = []
    for cls in (CechAnalyzer, GroupObstructionAnalyzer):
        def counted(self, model, _real=cls.__init__):
            made.append(type(self))
            _real(self, model)

        monkeypatch.setattr(cls, "__init__", counted)
    code, out, _ = run(capsys, "analyze", str(path), "--all")
    assert code == 0 and "consistent: True" in out
    assert sorted(made, key=str) == [CechAnalyzer, GroupObstructionAnalyzer]


def test_analyze_all_walks_the_sections_once(tmp_path, capsys, ghz,
                                            monkeypatch):
    """``--all`` answers its --cech and --group rows from the cross-check's
    one pass: each section is decided once in each theory, each context's
    coboundary solver is built once, the model's absolute solver (no
    relative orbits) is built once, and the payload is the one the
    separate loops give."""
    path = tmp_path / "ghz.json"
    path.write_text(dumps_model(ghz.structured))
    counts = dict.fromkeys(
        ("family_obstruction", "analyze", "__init__", "absolute"), 0)
    for cls, attr in ((CechAnalyzer, "family_obstruction"),
                      (GroupObstructionAnalyzer, "analyze"),
                      (CoboundarySolver, "__init__")):
        def counted(self, *args, _real=getattr(cls, attr), _attr=attr):
            absolute = _attr == "__init__" and not args[1]
            counts["absolute" if absolute else _attr] += 1
            return _real(self, *args)

        monkeypatch.setattr(cls, attr, counted)
    code, out, err = run(capsys, "analyze", str(path), "--all",
                         "--format", "structured")
    assert code == 0, err
    assert counts == {"family_obstruction": 135, "analyze": 135,
                      "__init__": 30, "absolute": 1}
    payload = json.loads(out)["payload"]
    monkeypatch.undo()
    apart = {}
    for flags in (["--classify", "--cech", "--group", "--avn"],
                  ["--crosscheck"]):
        code, out, err = run(capsys, "analyze", str(path), *flags,
                             "--format", "structured")
        assert code == 0, err
        apart.update(json.loads(out)["payload"])
    assert payload == apart


def test_non_associative_glued_monoid_is_bad_input(tmp_path, capsys):
    """Contexts that are each associative glue into a monoid where
    (x + y) + z = q but x + (y + z) = mq: validation and both group
    commands name the triple and exit 2."""
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(twisted_document()))
    for argv in (["validate"], ["analyze", "--group"], ["analyze", "--all"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2, err
        assert ("not associative at ('x', 'y', 'z'): (x + y) + z = 'q', "
                "x + (y + z) = 'mq'") in out + err


def test_non_associative_quotient_is_bad_input(tmp_path, capsys):
    """With x + r = s, a new label, the quotient itself is not associative,
    which a section's d(beta)=0 audit can miss: validation, the group
    query in one context and ``--all`` name the triple and exit 2."""
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(twisted_document((0, 0, 0, 0), last="s")))
    for argv in (["validate"], ["analyze", "--group", "--context", "2"],
                 ["analyze", "--all"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2, (argv, out, err)
        assert ("not associative at ('x', 'y', 'z'): (x + y) + z = 'q', "
                "x + (y + z) = 's'") in out + err


def test_nine_qubit_clique_loads(tmp_path, capsys):
    """Nine commuting Z's and -I close to one 1,024-member context, which
    the clique search finds without recursion."""
    gens = ["+" + "I" * k + "Z" + "I" * (8 - k) for k in range(9)]
    path = tmp_path / "z9.json"
    path.write_text(json.dumps({"pauli": {
        "generators": gens + ["-" + "I" * 9]}}))
    code, out, err = run(capsys, "analyze", str(path), "--classify")
    assert code == 0, err
    assert "1024 measurements, 1 contexts" in out
    assert "classification: noncontextual" in out


def test_analyze_all_on_plain_model_skips_group(capsys):
    code, out, _ = run(capsys, "analyze", "hardy", "--all",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert "group" not in payload and "crosscheck" not in payload
    assert payload["avn"]["avn"] is False


@pytest.mark.parametrize("name, sections, cech_vanishing", [
    ("bell_z3_pr_box.json", 12, 0), ("bell_z3_local.json", 36, 36)])
def test_analyze_all_on_z3_bell_documents(capsys, name, sections,
                                          cech_vanishing):
    """Off Z_2 the group route reconstructs with the right sign: the Z_3
    PR box, whose sections extend nowhere, vanishes in the group theory
    on every section, and on the full local support every section
    vanishes in both theories; ``analyze --all`` exits 0 on both, with
    the cross-check consistent."""
    code, out, err = run(capsys, "analyze", str(DATA / name), "--all",
                         "--format", "structured")
    assert code == 0, err
    payload = json.loads(out)["payload"]
    # the PR box's sections are solved, the local support's read off
    # their global sections
    path = "relative" if name == "bell_z3_pr_box.json" else "shortcut"
    paths = {"absolute": 0, "relative": 0, "shortcut": 0, path: sections}
    assert payload["crosscheck"] == {
        "sections": sections, "consistent": True,
        "cech_vanishing": cech_vanishing, "group_vanishing": sections,
        "group_paths": paths}
    assert all(r["vanishes"] for r in payload["group"])
    assert {r["path"] for r in payload["group"]} == {path}


@pytest.mark.parametrize("command", [["validate"], ["analyze", "--cech"]])
def test_mismatched_coefficient_action_exits_2_at_load(command, tmp_path,
                                                       capsys):
    """A coefficient group that is not the one cyclic factor Z_d of the
    outcome modulus is refused when the document is loaded, so a command
    that never builds the group, ``analyze --cech``, exits 2 with the
    same message as ``validate``."""
    doc = json.loads((DATA / "bell_z3_local.json").read_text())
    doc["partial_monoid"]["action"] = {"moduli": [3, 3],
                                       "images": ["m", "b0"]}
    path = tmp_path / "z3x3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == ("error: coefficient group must be one cyclic factor "
                   "matching the outcome modulus\n")


def test_group_rows_name_their_path(tmp_path, capsys):
    """Each structured --group row names the rung that decided it, and
    --crosscheck totals them: mermin's absolute class refutes every
    section, the Z_3 PR box, whose sections extend nowhere, is solved
    relative to each context, and a noncontextual Pauli closure reads every
    section off a global section."""
    closure = tmp_path / "closure.json"
    closure.write_text(dumps_model(build_state_independent_model(
        [parse_pauli(p) for p in ("+X", "+Z", "-I")])))
    for source, path in (("mermin", "absolute"),
                         (str(DATA / "bell_z3_pr_box.json"), "relative"),
                         (str(closure), "shortcut")):
        code, out, err = run(capsys, "analyze", source, "--group",
                             "--crosscheck", "--format", "structured")
        assert code == 0, err
        payload = json.loads(out)["payload"]
        rows = payload["group"]
        assert rows and {r["path"] for r in rows} == {path}
        totals = payload["crosscheck"]["group_paths"]
        assert totals[path] == len(rows) == sum(totals.values())


def test_analyze_group_requires_structure(capsys):
    code, out, err = run(capsys, "analyze", "hardy", "--group")
    assert code == 2
    assert "structure" in (out + err).lower()


def test_analyze_single_context_section(capsys):
    code, out, _ = run(capsys, "analyze", "mermin", "--cech",
                       "--context", "2", "--section", "1",
                       "--format", "structured")
    assert code == 0
    rows = json.loads(out)["payload"]["cech"]
    assert len(rows) == 1 and rows[0]["context"] == 2


def test_analyze_bad_context(capsys):
    code, _, err = run(capsys, "analyze", "mermin", "--cech",
                       "--context", "99")
    assert code == 2


def test_analyze_unknown_source(capsys):
    code, _, err = run(capsys, "analyze", "nosuch")
    assert code == 2
    assert "nosuch" in err or "nosuch" in _


def test_analyze_json_file(tmp_path, capsys, hardy):
    path = tmp_path / "hardy.json"
    path.write_text(dumps_model(hardy.model))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and "logically_contextual" in out


def test_analyze_structured_file_gets_group(tmp_path, capsys, mermin):
    path = tmp_path / "mermin.json"
    path.write_text(dumps_model(mermin.structured))
    code, out, _ = run(capsys, "analyze", str(path), "--group",
                       "--context", "0", "--section", "0",
                       "--format", "structured")
    assert code == 0
    rows = json.loads(out)["payload"]["group"]
    assert len(rows) == 1 and not rows[0]["vanishes"]


def test_state_on_too_many_qubits_is_exit_2(tmp_path, capsys):
    """A GHZ state on 64 qubits is refused when the document is loaded,
    before its 2**64 amplitudes are asked for."""
    path = tmp_path / "ghz64.json"
    path.write_text(json.dumps(
        {"pauli": {"generators": ["X" * 64], "state": "ghz:64"}}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out
    assert "state on 64 qubits; at most 20 are supported" in err


def test_closure_past_the_bound_is_exit_2(tmp_path, capsys):
    """Z on each of 40 qubits and -I would close to 2**41 operators; the
    load stops once the closure passes 1024."""
    gens = ["I" * k + "Z" + "I" * (39 - k) for k in range(40)]
    path = tmp_path / "z40.json"
    path.write_text(json.dumps({"pauli": {
        "generators": gens + ["-" + "I" * 40]}}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and not out
    assert "closure exceeds 1024 operators" in err


def test_malformed_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_internal_error_is_exit_3(monkeypatch, capsys):
    def boom(_source):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setattr(cli, "_load_source", boom)
    code, _, err = run(capsys, "analyze", "mermin")
    assert code == 3
    assert "synthetic" in err


def test_unexpected_exception_is_one_line_exit_3(monkeypatch, capsys):
    def broken(_model):
        raise RuntimeError("search exploded\nsecond line")

    monkeypatch.setattr(cli, "classify", broken)
    code, out, err = run(capsys, "analyze", "hardy")
    assert code == 3 and not out
    assert err.splitlines() == [
        "internal error in analyze: RuntimeError: search exploded"]


def test_section_all(capsys):
    code, out, _ = run(capsys, "analyze", "hardy", "--cech",
                       "--section", "all", "--format", "structured")
    assert code == 0
    assert len(json.loads(out)["payload"]["cech"]) == 13


def _mutate(doc, rng):
    """One seeded mutation of an explicit structured document; returns
    its kind."""
    tables = doc["partial_monoid"]["contexts"]
    contexts = doc["contexts"]
    ci = rng.randrange(len(contexts))
    ctx = contexts[ci]
    kind = rng.choice(("table", "section", "outcome", "image", "moduli",
                       "relabel", "disagree"))
    if kind == "table":
        entry = rng.choice(tables[ci])
        entry[2] = rng.choice(ctx)
    elif kind == "section":
        rows = doc["sections"][str(ci)]
        k = rng.randrange(len(rows))
        if rng.random() < 0.5:
            del rows[k]
        else:
            rows[k][rng.randrange(len(ctx))] ^= 1
    elif kind == "outcome":
        rows = doc["sections"][str(ci)]
        rng.choice(rows)[rng.randrange(len(ctx))] = rng.choice((-1, 2, 3))
    elif kind == "image":
        images = doc["partial_monoid"]["action"]["images"]
        images[0] = rng.choice(doc["measurements"] + ["nope"])
    elif kind == "moduli":
        doc["partial_monoid"]["action"]["moduli"] = rng.choice(
            ([0], [1], [3], [4], [2, 2], [-1], []))
    elif kind == "relabel":
        # swap the two signs of one operator in one context, in its table
        # and its sections: the context stays a group with the same shared
        # products and restriction sets, so it glues, but its products
        # move against the other contexts'
        u = rng.choice([x for x in ctx if x[1:] != "II"])
        v = ("-" if u[0] == "+" else "+") + u[1:]
        swap = {u: v, v: u}
        tables[ci] = [[swap.get(x, x) for x in entry]
                      for entry in tables[ci]]
        at = [ctx.index(swap.get(x, x)) for x in ctx]
        doc["sections"][str(ci)] = [[row[k] for k in at]
                                    for row in doc["sections"][str(ci)]]
    else:
        # one shared pair gets another product in this context only
        shared = {x for cj, other in enumerate(contexts) if cj != ci
                  for x in other if x in ctx}
        pairs = [e for e in tables[ci] if e[0] in shared and e[1] in shared]
        x, y, z = rng.choice(pairs)
        new = rng.choice([w for w in ctx if w != z])
        for entry in tables[ci]:
            if {entry[0], entry[1]} == {x, y}:
                entry[2] = new
    return kind


def test_fuzzed_structured_documents_exit_0_or_2(tmp_path, capsys, mermin):
    """Seeded mutations of the mermin document never break an internal
    invariant: every run ends in a verdict (0) or a named input error
    (2), never exit 3.  Every composable triple of the glued mermin
    monoid lies in one context, so associativity across contexts is
    reached through contexts that still glue: the sign-swap relabelling
    keeps them gluing and makes the square noncontextual, so the group
    route reconstructs global splittings on a changed monoid."""
    base = json.loads(dumps_model(mermin.structured))
    rng = random.Random(2061)
    path = tmp_path / "fuzz.json"
    codes = {}
    for _ in range(200):
        doc = json.loads(json.dumps(base))
        kind = _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        code = cli.main(["analyze", str(path), "--all"])
        err = capsys.readouterr().err
        assert code in (0, 2), (kind, err)
        codes[(kind, code)] = codes.get((kind, code), 0) + 1
    assert {kind for kind, _code in codes} == {
        "table", "section", "outcome", "image", "moduli", "relabel",
        "disagree"}
    assert codes.get(("relabel", 0), 0) > 0


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_deeply_nested_json_exits_2(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, _out, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("modulus, code, verdict", [
    (2**61 - 1, 0, "all-vs-nothing: does not hold"),
    (2**89 - 1, 2, None),
    (10**30, 0, "all-vs-nothing: holds"),
    (999_999_999_989, 0, "all-vs-nothing: does not hold"),
])
def test_avn_on_large_outcome_moduli(modulus, code, verdict, mermin,
                                     tmp_path, capsys):
    """The mermin sections read at a large outcome modulus: the Mersenne
    prime 2^61 - 1 is certified prime and decided, 2^89 - 1, past the
    certified range, is refused naming the modulus, and 10^30 and a prime
    near 10^12 decide as before; each within a second."""
    doc = json.loads(dumps_model(mermin.model))
    doc["outcome_modulus"] = modulus
    path = tmp_path / "mermin.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    got, out, err = run(capsys, "analyze", str(path), "--avn")
    assert time.perf_counter() - t0 < 1
    assert got == code
    if verdict is None:
        assert err.startswith(f"error: modulus {modulus}: ")
    else:
        assert verdict in out
