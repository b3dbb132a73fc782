"""The benchmark's layer tracer still finds the library's layer names.

``perfbench/spans.py`` patches public functions and methods by name from
outside the library.  This runs it, unchanged, in a child process (its
patches are global) over the mermin cross-check, a noncontextual
Pauli model, whose vanishing sections reach both theories' global-section
shortcut, the binary PR-box cross-check, whose sections vanish in the
group theory but extend to no global section, so each is solved mod 2
and reconstructed, the mermin All-vs-Nothing decision, whose
theory has equations, the Hardy classification and its witness section
through both Cech routes, which neither parity nor the shortcut decides,
so each makes one lattice solve, and one state-dependent Pauli document
loaded through ``loads_model``, whose build calls the closure, context
and Born-support names.  A renamed layer, a build that stopped calling
those names, a GF(2) or integer solver whose methods moved out from
under the names the tracer patches, or a shortcut that sent sections to
the lattice stage, would read 0 there, so each span and counter must
not.

Echelon construction no longer passes through ``Gf2Echelon.add_row``,
which the tracer patches: the constructor echelons its rows in one
private loop, so building a GF(2) system is timed as self time of the
span that builds it (``cech.setup``, ``cech.route1``, ``cech.route2``
or ``linalg.mod``), and ``linalg.gf2`` holds the solves, expressions,
refuters and kernel bases.
"""

import json
import os
import subprocess
import sys

from test_mcohom import bell_document, pr_box

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
from spans import Tracer
tracer = Tracer()
tracer.install()
import contextuality as ctx
from contextuality.pauli import build_state_independent_model, parse_pauli
for st in (ctx.get_fixture("mermin").structured,
           build_state_independent_model(
               [parse_pauli(s) for s in ("+X", "+Z", "-I")])):
    assert ctx.cross_check_obstructions(st).consistent
assert ctx.cross_check_obstructions(ctx.loads_model(sys.argv[1])).consistent
assert ctx.is_avn(ctx.get_fixture("mermin").model).avn
hardy = ctx.get_fixture("hardy").model
(ci, s), = ctx.classify(hardy).witnesses
assert ctx.cech_obstruction_vanishes(hardy, ci, s).vanishes
assert ctx.connecting_cocycle(hardy, ci, s).vanishes
ctx.loads_model(json.dumps({"pauli": {
    "generators": ["+XXX", "+XYY", "+ZZI", "+IZZ", "-III"],
    "state": "ghz:3"}}))
print(json.dumps({"self_ns": tracer.self_ns, "counts": tracer.counts}))
"""


def test_tracer_sees_the_group_route():
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    pr = json.dumps(bell_document(2, pr_box(2)))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, pr], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    for span in ("pmonoid.glue", "pmonoid.quotient", "pmonoid.reconstruct",
                 "mcohom.audit", "mcohom.decide", "cech.setup",
                 "cech.route1", "cech.route2", "cech.crosscheck",
                 "pauli.build", "pauli.closure", "pauli.contexts",
                 "pauli.born", "linalg.gf2", "linalg.integer", "linalg.mod",
                 "mcohom.query",
                 "scenario.classify", "avn.is_avn"):
        assert seen["self_ns"].get(span, 0) > 0, span
    for counter in ("mcohom.triples_audited", "mcohom.quotient_elements",
                    "cech.rows", "cech.unknowns",
                    "cech.route1.shortcut", "cech.route2.shortcut",
                    "pauli.operators", "pauli.contexts",
                    "linalg.gf2_solves", "linalg.integer_solves",
                    "linalg.mod_solves", "mcohom.vanishing",
                    "cech.route1.lattice", "cech.route2.lattice",
                    "avn.equations"):
        assert seen["counts"].get(counter, 0) > 0, counter
