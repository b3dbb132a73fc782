"""The benchmark's layer tracer still finds the library's layer names.

``perfbench/spans.py`` patches public functions and methods by name from
outside the library.  This runs it, unchanged, in a child process (its
patches are global) over the mermin cross-check, a noncontextual
Pauli model, whose vanishing sections reach the reconstruction and the
Cech global-section shortcut, the Hardy witness section through both
Cech routes, which neither parity nor the shortcut decides, so each
makes one lattice solve, and one state-dependent Pauli document
loaded through ``loads_model``, whose build calls the closure, context
and Born-support names.  A renamed layer, a build that stopped calling
those names, a GF(2) or integer solver whose methods moved out from
under the names the tracer patches, or a shortcut that sent sections to
the lattice stage, would read 0 there, so each span and counter must
not.
"""

import json
import os
import subprocess
import sys

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
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    for span in ("pmonoid.glue", "pmonoid.quotient", "pmonoid.reconstruct",
                 "mcohom.audit", "mcohom.decide", "cech.setup",
                 "cech.route1", "cech.route2", "cech.crosscheck",
                 "pauli.build", "pauli.closure", "pauli.contexts",
                 "pauli.born", "linalg.gf2", "linalg.integer"):
        assert seen["self_ns"].get(span, 0) > 0, span
    for counter in ("mcohom.triples_audited", "mcohom.quotient_elements",
                    "cech.rows", "cech.unknowns",
                    "cech.route1.shortcut", "cech.route2.shortcut",
                    "pauli.operators", "pauli.contexts",
                    "linalg.gf2_solves", "linalg.integer_solves",
                    "cech.route1.lattice", "cech.route2.lattice"):
        assert seen["counts"].get(counter, 0) > 0, counter
