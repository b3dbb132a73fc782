"""
Two obstruction theories, one implication
=========================================

Each section of a structured model gets two verdicts: the Cech class
of its linearized extension problem, and the group-cohomology class of
its partial-monoid splitting problem.  Whenever the first vanishes the
second must, and the cross-check enforces that on every row while also
re-verifying each vanishing class against an actual global object.
"""

from contextuality.cech import cross_check_obstructions
from contextuality.fixtures import get_fixture
from contextuality.mcohom import group_obstruction
from contextuality.pauli import build_state_independent_model, parse_pauli

# a strongly contextual model: both columns refuse every section
mermin = get_fixture("mermin").structured
report = cross_check_obstructions(mermin)
print(f"mermin: {len(report.rows)} sections, consistent = "
      f"{report.consistent}")
print("  context  section            cech=0  group=0")
for row in report.rows[:6]:
    values = "".join(str(v) for _, v in row.section.items)
    print(f"  {row.context_index:^7}  {values:<17}  "
          f"{str(row.cech_vanishes):<6}  {row.group_vanishes}")
print(f"  ... ({len(report.rows) - 6} more rows, all False/False)")

# a noncontextual model: both columns accept, and acceptance is backed
# by a global splitting: every section here restricts from a global
# section, which is audited as a splitting of the whole monoid and reused;
# the solver and the reconstruction run only for sections that extend to
# no global section
ops = [parse_pauli(s) for s in ("+X", "+Z", "-I")]
small = build_state_independent_model(ops)
report = cross_check_obstructions(small)
print(f"\nsingle-qubit X/Z model: {len(report.rows)} sections, "
      f"consistent = {report.consistent}, all vanishing = "
      f"{all(r.cech_vanishes and r.group_vanishes for r in report.rows)}")

ci, sec = 0, small.model.sections[0][0]
group = group_obstruction(small, ci, sec)
print(f"\nsection {dict(sec.items)} at context {ci}:")
print("  beta vanishes:", group.vanishes)
print("  audited global splitting:", group.global_splitting)
ctx = small.model.scenario.contexts[ci]
print("  extends the section:",
      all(group.global_splitting[x] == sec[x] for x in ctx))
