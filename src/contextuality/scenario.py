"""Measurement scenarios and possibilistic empirical models.

A scenario is a finite set of measurement labels, a cover of contexts
(subsets that can be measured jointly), and one outcome ring Z_d shared by
all measurements.  A possibilistic empirical model assigns every context
the set of outcome sections deemed possible.  Classification asks whether
local sections glue: a model is non-contextual when every allowed section
extends to a global assignment, logically contextual when some section
does not extend, and strongly contextual when no global assignment is
compatible with the model at all.

Global sections are found by one iterative search (``_Search``) with no
recursion, so its depth is not bounded by the interpreter's stack.  It
keeps generalized arc consistency between contexts that share
measurements: a context keeps only the rows that agree with its
measurements' remaining values, and a value stays only while every
context containing the measurement has a row that uses it.  It branches
fail first, on the context with the fewest remaining rows, and undoes
each branch from one trail of changes instead of copying state.
``extension_table`` is the one classification pass, cached on the model:
each global section found marks every row it restricts to, so a pinned
search runs only for unmarked rows; ``classify`` and Cech read the marks.

Sections run on int rows: ``EmpiricalModel.make`` reads each section's
outcomes once, in its context's label order, and ``pair_restrictions``
reads every pair overlap off those rows at the overlap's positions.
Everything after loading works from rows and positions, except the
label-level audits; ``Section`` objects stay at the edge.

Scenario-law violations (cover not covering, nested contexts, signalling)
are reported as data by the validators rather than raised, so that broken
models can be inspected.  Malformed input (labels not in the scenario,
outcomes out of range) raises ``PreconditionError``.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter

from .errors import PreconditionError


@dataclass(frozen=True, order=True)
class Section:
    """Immutable outcome assignment on a finite set of measurements."""

    items: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, assignment) -> "Section":
        if isinstance(assignment, Section):
            return assignment
        pairs = tuple(sorted((str(m), int(v)) for m, v in dict(assignment).items()))
        return cls(pairs)

    @classmethod
    def from_values(cls, labels, values) -> "Section":
        """The section taking ``values[k]`` at ``labels[k]``."""
        return cls(tuple(sorted(zip(labels, values))))

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.items)

    def __getitem__(self, label: str) -> int:
        for m, v in self.items:
            if m == label:
                return v
        raise KeyError(label)

    def __contains__(self, label: str) -> bool:
        return any(m == label for m, _ in self.items)

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def restrict(self, labels) -> "Section":
        want = set(labels)
        missing = want - {m for m, _ in self.items}
        if missing:
            raise PreconditionError(
                f"cannot restrict section to labels outside its domain: {sorted(missing)}"
            )
        return Section(tuple((m, v) for m, v in self.items if m in want))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{m}:{v}" for m, v in self.items) + "}"


@dataclass(frozen=True)
class MeasurementScenario:
    """Measurement labels, outcome modulus, and a cover of contexts.

    Contexts are stored as tuples ordered by the scenario's measurement
    order, and the cover itself is kept in a fixed deterministic order, so
    every downstream computation is reproducible.
    """

    measurements: tuple[str, ...]
    outcome_modulus: int
    contexts: tuple[tuple[str, ...], ...]

    @classmethod
    def make(cls, measurements, outcome_modulus: int, contexts) -> "MeasurementScenario":
        labels = tuple(str(m) for m in measurements)
        if len(set(labels)) != len(labels):
            raise PreconditionError("duplicate measurement labels")
        if int(outcome_modulus) < 2:
            raise PreconditionError("outcome modulus must be at least 2")
        order = {m: i for i, m in enumerate(labels)}
        normalized = []
        for ctx in contexts:
            ctx = [str(m) for m in ctx]
            unknown = [m for m in ctx if m not in order]
            if unknown:
                raise PreconditionError(f"context uses unknown measurements: {unknown}")
            if len(set(ctx)) != len(ctx):
                raise PreconditionError(f"context lists a measurement twice: {ctx}")
            if not ctx:
                raise PreconditionError("empty context")
            normalized.append(tuple(sorted(ctx, key=order.__getitem__)))
        normalized.sort(key=lambda c: tuple(order[m] for m in c))
        return cls(labels, int(outcome_modulus), tuple(normalized))

    def sort_labels(self, labels) -> tuple[str, ...]:
        order = {m: i for i, m in enumerate(self.measurements)}
        return tuple(sorted(labels, key=order.__getitem__))

    def containing_contexts(self, labels) -> tuple[int, ...]:
        want = set(labels)
        return tuple(i for i, c in enumerate(self.contexts) if want <= set(c))



@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"- {v}" for v in self.violations)


def _cover_connected(contexts) -> bool:
    if not contexts:
        return True
    n = len(contexts)
    seen = {0}
    frontier = [0]
    sets = [set(c) for c in contexts]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if j not in seen and sets[i] & sets[j]:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def validate_scenario(scenario: MeasurementScenario) -> ValidationReport:
    """Check the cover laws: covering, anti-chain, connectedness."""
    violations = []
    covered = set()
    for c in scenario.contexts:
        covered.update(c)
    missing = [m for m in scenario.measurements if m not in covered]
    if missing:
        violations.append(f"measurements not covered by any context: {missing}")
    sets = [set(c) for c in scenario.contexts]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                violations.append(
                    f"cover is not an anti-chain: context {scenario.contexts[i]} "
                    f"is contained in {scenario.contexts[j]}"
                )
    if not _cover_connected(scenario.contexts):
        violations.append("cover is disconnected")
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-context sets of possible sections over a scenario.

    ``rows[c][u]`` holds the outcomes of ``sections[c][u]`` in context c's
    label order, and each context lists its sections in row order.  Only
    ``make`` builds it; equality and hashing ignore it.
    """

    scenario: MeasurementScenario
    sections: tuple[tuple[Section, ...], ...]
    rows: tuple[tuple[tuple[int, ...], ...], ...] = field(compare=False, repr=False)

    @classmethod
    def make(cls, scenario: MeasurementScenario, sections_by_context) -> "EmpiricalModel":
        if len(sections_by_context) != len(scenario.contexts):
            raise PreconditionError("need a section set for every context")
        d = scenario.outcome_modulus
        sections, rows = [], []
        for ctx, raw in zip(scenario.contexts, sections_by_context):
            ctx_set = set(ctx)
            cleaned = {}
            for s in raw:
                s = Section.of(s)
                values = s.as_dict()
                if values.keys() != ctx_set:
                    raise PreconditionError(
                        f"section {s} does not have domain exactly {ctx}"
                    )
                if any(not 0 <= v < d for v in values.values()):
                    raise PreconditionError(f"section {s} has outcomes outside Z_{d}")
                cleaned[tuple(values[m] for m in ctx)] = s
            if not cleaned:
                raise PreconditionError(f"context {ctx} has an empty section set")
            rows.append(tuple(sorted(cleaned)))
            sections.append(tuple(cleaned[k] for k in rows[-1]))
        return cls(scenario, tuple(sections), tuple(rows))

    def section_index(self, context_index: int, section: Section) -> int:
        if not 0 <= context_index < len(self.sections):
            raise PreconditionError(f"context index {context_index} out of range")
        try:
            return self.sections[context_index].index(section)
        except ValueError:
            raise PreconditionError(
                f"section {section} is not allowed at context "
                f"{self.scenario.contexts[context_index]}"
            ) from None

    @cached_property
    def extension_table(self) -> list[list[tuple[int, ...] | None]]:
        """``[c][r]``: the first global section found through row r of
        context c, as one row position per context, or None where none
        extends the row.  Read-only, and made once per model.

        One ``_Search`` fills it: an unpinned search, then a pinned search
        for each row still unmarked, which branches on unmarked rows first.
        """
        search = _Search(self)
        if search.search():
            for c, marks in enumerate(search.seen):
                for r, g in enumerate(marks):
                    if g is None:
                        search.search((c, r))
        return search.seen

    @cached_property
    def cech_analyzer(self):
        """The model's ``cech.CechAnalyzer``, made by the first Cech query
        and shared by every later one.  It reads the model through a weak
        proxy, so no cycle outlives the model: use it only while it lives."""
        from .cech import CechAnalyzer
        return CechAnalyzer(weakref.proxy(self))

    def pair_restrictions(self):
        """``(i, j, labels, left, right)`` for each pair i < j of contexts
        that share the measurements ``labels``: ``left[u]`` (``right[u]``)
        is row u of C_i (C_j) read at the positions of those labels."""
        contexts = self.scenario.contexts
        members = [set(c) for c in contexts]
        for i, j in combinations(range(len(contexts)), 2):
            at_i = [p for p, x in enumerate(contexts[i]) if x in members[j]]
            if not at_i:
                continue
            at_j = [p for p, x in enumerate(contexts[j]) if x in members[i]]
            yield (i, j, tuple(contexts[i][p] for p in at_i),
                   _read(self.rows[i], at_i), _read(self.rows[j], at_j))


def _read(rows, positions) -> list[tuple[int, ...]]:
    """Each row's outcomes at ``positions``, as a tuple."""
    get = itemgetter(*positions)
    return [get(row) for row in rows] if positions[1:] else [(get(row),) for row in rows]


def sections_below(model: EmpiricalModel, labels) -> tuple[Section, ...]:
    """Possible sections on a compatible set ``V``: restrictions from a context.

    Computed from the rows of the first context containing ``V``; under
    no-signalling every containing context induces the same set.
    """
    scenario = model.scenario
    v = scenario.sort_labels(labels)
    if not v:
        return (Section.of({}),)
    hosts = scenario.containing_contexts(v)
    if not hosts:
        raise PreconditionError(f"{list(v)} is not beneath any context")
    ctx = scenario.contexts[hosts[0]]
    below = set(_read(model.rows[hosts[0]], [ctx.index(x) for x in v]))
    return tuple(Section.from_values(v, key) for key in sorted(below))


def check_no_signalling(model: EmpiricalModel) -> ValidationReport:
    """Restriction sets of every pair of contexts must agree on the overlap.

    Agreement at each maximal overlap forces agreement beneath it, so the
    pairwise check decides flasqueness beneath the cover.
    """
    violations = []
    contexts = model.scenario.contexts
    for i, j, labels, left, right in model.pair_restrictions():
        left, right = set(left), set(right)
        if left != right:
            only = [sorted(str(Section.from_values(labels, k)) for k in a - b)
                    for a, b in ((left, right), (right, left))]
            violations.append(
                f"signalling between {contexts[i]} and {contexts[j]} on "
                f"{labels}: only-left={only[0]} only-right={only[1]}")
    return ValidationReport(tuple(violations))


class _Search:
    """Iterative search for global sections of one model.

    Measurements are variables whose domains are bitmasks over Z_d, and
    contexts are table constraints whose alive rows are the prefix
    ``perm[c][:size[c]]`` of a sparse set.  Every change to a domain or a
    row count is pushed on one undo trail, so backtracking restores a
    node's state without copying it.  The root state is made arc
    consistent once, and every search starts from it and returns to it.
    ``seen[c][r]`` is the first global section found through row r of c,
    as one row position per context, or None; ``unseen[c]`` counts the rows
    of ``c`` alive at the root and not seen yet, and ``fresh`` lists the
    contexts with such rows.
    """

    def __init__(self, model: EmpiricalModel):
        scenario = model.scenario
        pos = {m: i for i, m in enumerate(scenario.measurements)}
        self.d = scenario.outcome_modulus
        self.scope = [tuple(pos[m] for m in c) for c in scenario.contexts]
        self.rows = model.rows
        self.watch: list[list[int]] = [[] for _ in pos]
        for c, scope in enumerate(self.scope):
            for m in scope:
                self.watch[m].append(c)
        self.dom = [(1 << self.d) - 1] * len(pos)
        self.perm = [list(range(len(rows))) for rows in self.rows]
        self.size = [len(rows) for rows in self.rows]
        self.seen = [[None] * len(rows) for rows in self.rows]
        self.trail: list[tuple[int, int]] = []
        self.consistent = self._propagate(range(len(self.scope)))
        self.unseen = list(self.size)
        self.fresh = [c for c, n in enumerate(self.unseen) if n]

    def _propagate(self, pending) -> bool:
        """Generalized arc consistency: drop every row that disagrees with
        a domain and every value that a containing context no longer
        supports, until nothing changes.  False on a wipe-out."""
        dom, size, perm, trail = self.dom, self.size, self.perm, self.trail
        queue = deque(dict.fromkeys(pending))
        queued = set(queue)
        while queue:
            c = queue.popleft()
            queued.discard(c)
            scope, rows, p = self.scope[c], self.rows[c], self.perm[c]
            masks = [dom[m] for m in scope]
            support = [0] * len(scope)
            n, i = size[c], 0
            while i < n:
                row = rows[p[i]]
                if all(mask >> v & 1 for mask, v in zip(masks, row)):
                    for k, v in enumerate(row):
                        support[k] |= 1 << v
                    i += 1
                else:
                    n -= 1
                    p[i], p[n] = p[n], p[i]
            if not n:
                return False
            if n != size[c]:
                trail.append((c, size[c]))
                size[c] = n
            for m, mask, sup in zip(scope, masks, support):
                if mask & sup != mask:
                    trail.append((~m, mask))
                    dom[m] = mask & sup
                    for other in self.watch[m]:
                        if other != c and other not in queued:
                            queued.add(other)
                            queue.append(other)
        return True

    def _assign(self, c: int, r: int) -> bool:
        """Fix context ``c`` to row ``r`` and propagate."""
        dom, trail = self.dom, self.trail
        pending = [c]
        for m, v in zip(self.scope[c], self.rows[c][r]):
            mask = dom[m]
            if not mask >> v & 1:
                return False
            if mask != 1 << v:
                trail.append((~m, mask))
                dom[m] = 1 << v
                pending.extend(self.watch[m])
        return self._propagate(pending)

    def _undo(self, mark: int) -> None:
        dom, size, trail = self.dom, self.size, self.trail
        while len(trail) > mark:
            k, old = trail.pop()
            if k < 0:
                dom[~k] = old
            else:
                size[k] = old

    def _branch_context(self) -> int | None:
        """Fail first: the context with the fewest alive rows above one,
        taken first among contexts that still have an unseen row, so that
        each search settles those contexts while it can still choose their
        unseen rows."""
        size = self.size
        unsettled = ([c for c in self.fresh if size[c] > 1]
                     or [c for c, n in enumerate(size) if n > 1])
        return min(unsettled, key=size.__getitem__, default=None)

    def _solutions(self, find_all: bool) -> list[tuple[int, ...]]:
        """The assignments of a node whose contexts all have one alive row.

        Arc consistency makes those rows agree, so every measurement in a
        context has one value left; measurements in no context range over
        Z_d.  One solution takes each domain's least value, its lowest set
        bit, without listing the domain.
        """
        g = tuple(p[0] for p in self.perm)
        for c, r in enumerate(g):
            if self.seen[c][r] is None:
                self.seen[c][r] = g
                self.unseen[c] -= 1
        self.fresh = [c for c in self.fresh if self.unseen[c]]
        if not find_all:
            return [tuple((mask & -mask).bit_length() - 1
                          for mask in self.dom)]
        return list(product(*([v for v in range(self.d) if mask >> v & 1]
                              for mask in self.dom)))

    def search(self, pin: tuple[int, int] | None = None,
               find_all: bool = False) -> list[tuple[int, ...]]:
        """Global assignments, as value tuples in measurement order, that
        restrict to row ``pin[1]`` of context ``pin[0]`` when ``pin`` is
        given: all of them, or the first one found.  Branches on
        ``_branch_context`` and tries unseen rows first."""
        found: list[tuple[int, ...]] = []
        if not self.consistent:
            return found
        base = len(self.trail)
        ok = pin is None or self._assign(*pin)
        stack = []  # (context, iterator over its untried rows, trail mark)
        while ok:
            c = self._branch_context()
            if c is None:
                found.extend(self._solutions(find_all))
                if not find_all:
                    break
            else:
                seen = self.seen[c]
                rows = sorted(self.perm[c][:self.size[c]],
                              key=lambda r: (seen[r] is not None, r))
                stack.append((c, iter(rows), len(self.trail)))
            ok = False
            while stack and not ok:
                c, untried, mark = stack[-1]
                self._undo(mark)
                r = next(untried, None)
                if r is None:
                    stack.pop()
                else:
                    ok = self._assign(c, r)
        self._undo(base)
        return found


def global_sections(model: EmpiricalModel) -> tuple[Section, ...]:
    """All global assignments whose restriction to every context is allowed.

    These are exactly the glueings of compatible families of the model.
    One ``_Search`` enumerates them: arc consistency between contexts that
    share measurements prunes every row without support, and branching on
    the context with the fewest alive rows splits the rest.
    """
    labels = model.scenario.measurements
    found = sorted(_Search(model).search(find_all=True))
    return tuple(Section.from_values(labels, vals) for vals in found)


def extension(model: EmpiricalModel, context_index: int, section: Section) -> Section | None:
    """A global section restricting to an allowed context section, or None.

    One pinned ``_Search`` decides it, so the cost does not grow with the
    number of global sections.
    """
    row = model.section_index(context_index, Section.of(section))
    found = _Search(model).search((context_index, row))
    return Section.from_values(model.scenario.measurements, found[0]) if found else None


def section_extends(model: EmpiricalModel, context_index: int, section: Section) -> bool:
    """Does an allowed context section extend to some global section?"""
    return extension(model, context_index, section) is not None


@dataclass(frozen=True)
class ContextualityClass:
    """Verdict: "noncontextual", "logically_contextual" or "strongly_contextual".

    For logically contextual models ``witnesses`` lists every pair
    ``(context_index, section)`` whose section admits no global extension.
    """

    kind: str
    witnesses: tuple[tuple[int, Section], ...] = field(default=())

    @property
    def contextual(self) -> bool:
        return self.kind != "noncontextual"

    @property
    def strongly_contextual(self) -> bool:
        return self.kind == "strongly_contextual"

    def __str__(self) -> str:
        if self.kind == "logically_contextual":
            n = len(self.witnesses)
            noun = "section" if n == 1 else "sections"
            return f"logically_contextual ({n} non-extendable {noun})"
        return self.kind


def classify(model: EmpiricalModel) -> ContextualityClass:
    """Possibilistic contextuality class of a model, read off its
    ``extension_table``: the witnesses are its None entries, in context and
    section order, and no global section at all is strong contextuality.
    """
    table = model.extension_table
    if table and all(g is None for g in table[0]):
        return ContextualityClass("strongly_contextual")
    witnesses = tuple((c, model.sections[c][r]) for c, marks in enumerate(table)
                      for r, g in enumerate(marks) if g is None)
    if witnesses:
        return ContextualityClass("logically_contextual", witnesses)
    return ContextualityClass("noncontextual")
