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
context containing the measurement has a row that uses it.  Each
context's alive rows are one bitmask, filtered and read for support
through per-value row masks (compact tables).  It branches fail first,
on the context with the fewest remaining rows, and undoes each branch
from one trail of changes instead of copying state.
``extension_table`` is the one classification pass, cached on the model:
each global section found marks every row it restricts to, so a pinned
search runs only for unmarked rows; ``classify`` and Cech read the marks.

A model is its int rows: ``EmpiricalModel.from_rows`` checks and files
each context's outcome rows, in the context's label order, and the loader
and the Pauli builder call it directly; ``make`` reads each section once
into a row for it.  ``pair_restrictions`` reads every pair overlap off the
rows at the overlap's positions.  Classification and the Cech analyzer
work from rows and positions, and ``sections``, the ``Section`` objects
of the edge, are built from the rows only when first read.

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
from itertools import chain, combinations, compress, product
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

    ``rows[c]`` lists the allowed outcome rows of context c, each in c's
    label order, sorted and without repeats; equality and hashing read
    the scenario and the rows.  ``from_rows`` builds and checks them, and
    ``make`` reads sections into rows for it.  ``sections[c][u]``, the
    ``Section`` of row u, is built from the rows on first read.
    """

    scenario: MeasurementScenario
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def make(cls, scenario: MeasurementScenario, sections_by_context) -> "EmpiricalModel":
        """The model allowing the sections ``sections_by_context[c]`` at
        context c: each is read once into a row for ``from_rows``."""
        if len(sections_by_context) != len(scenario.contexts):
            raise PreconditionError("need a section set for every context")
        rows = []
        for ctx, raw in zip(scenario.contexts, sections_by_context):
            rows.append([])
            for s in map(Section.of, raw):
                values = s.as_dict()
                if values.keys() != set(ctx):
                    raise PreconditionError(f"section {s} does not have domain exactly {ctx}")
                rows[-1].append(tuple(values[m] for m in ctx))
        return cls.from_rows(scenario, rows)

    @classmethod
    def from_rows(cls, scenario: MeasurementScenario, rows_by_context) -> "EmpiricalModel":
        """The model allowing the outcome rows in the sequence
        ``rows_by_context[c]`` at context c, each listing one outcome per
        label in c's order.  Every outcome must be an int in Z_d; repeated
        rows are merged."""
        contexts, d = scenario.contexts, scenario.outcome_modulus
        if len(rows_by_context) != len(contexts):
            raise PreconditionError("need a section set for every context")
        raw = [list(map(tuple, given)) for given in rows_by_context]
        cells = [*chain.from_iterable(chain.from_iterable(raw))]
        if ({*map(type, cells)} <= {int} and 0 <= min(cells, default=0)
                and max(cells, default=0) < d):
            rows = tuple(tuple(sorted(set(given))) for given in raw)
            if all(rows) and all({*map(len, kept)} == {len(ctx)}
                                 for ctx, kept in zip(contexts, rows)):
                return cls(scenario, rows)
        for ctx, given in zip(contexts, raw):  # name the first fault
            if not given:
                raise PreconditionError(f"context {ctx} has an empty section set")
            for row in given:
                if len(row) != len(ctx) or not all(type(v) is int for v in row):
                    raise PreconditionError(
                        f"row {row} does not list one int outcome per label of {ctx}")
            for row in given:
                if not 0 <= min(row) <= max(row) < d:
                    raise PreconditionError(f"section {Section.from_values(ctx, row)} "
                                            f"has outcomes outside Z_{d}")

    @cached_property
    def sections(self) -> tuple[tuple[Section, ...], ...]:
        """``sections[c][u]``: row u of context c as a ``Section``."""
        return tuple(tuple(Section.from_values(ctx, row) for row in rows)
                     for ctx, rows in zip(self.scenario.contexts, self.rows))

    @cached_property
    def _row_positions(self) -> list[dict[tuple, int]]:
        """Per context, each row's position, keyed by the items its
        ``Section`` would have: the labels in sorted order, each with its
        outcome."""
        out = []
        for ctx, rows in zip(self.scenario.contexts, self.rows):
            order = sorted(range(len(ctx)), key=ctx.__getitem__)
            labels = [ctx[p] for p in order]
            out.append({tuple(zip(labels, values)): u
                        for u, values in enumerate(_read(rows, order))})
        return out

    def section_index(self, context_index: int, section: Section) -> int:
        """The position of ``section`` among the rows of its context, read
        through ``_row_positions`` without building the ``Section``s."""
        if not 0 <= context_index < len(self.rows):
            raise PreconditionError(f"context index {context_index} out of range")
        u = self._row_positions[context_index].get(section.items)
        if u is None:
            raise PreconditionError(
                f"section {section} is not allowed at context "
                f"{self.scenario.contexts[context_index]}")
        return u

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
    """Iterative search for global sections of one model, on compact
    tables.

    Measurements are variables whose domains are bitmasks over the values
    that their contexts' rows use: each measurement numbers those values
    0, 1, ... in ascending order, bit b of ``dom[m]`` stands for the value
    ``values[m][b]``, and ``bit[m]`` maps a value back to its bit, so no
    mask grows with the size of an outcome.
    Contexts are table constraints whose alive rows are one bitmask over
    their row positions, ``alive[c]``, with ``size[c]`` set bits.
    ``table[c][k]`` lists, for position k of context c, the bit of each
    value that occurs there with the mask of the rows that take it.
    Every change to a domain or to a context's alive mask is pushed on one
    undo trail, as the measurement's complement or the context with the
    value it replaced, so backtracking restores a node's state without
    copying it.
    The root state is made arc consistent once, and every search starts
    from it and returns to it.  ``seen[c][r]`` is the first global section
    found through row r of c, as one row position per context, or None;
    ``unseen[c]`` counts the rows of ``c`` alive at the root and not seen
    yet, and ``fresh`` lists the contexts with such rows.
    """

    def __init__(self, model: EmpiricalModel):
        scenario = model.scenario
        pos = {m: i for i, m in enumerate(scenario.measurements)}
        self.scope = [tuple(pos[m] for m in c) for c in scenario.contexts]
        self.watch: list[list[int]] = [[] for _ in pos]
        for c, scope in enumerate(self.scope):
            for m in scope:
                self.watch[m].append(c)
        # each measurement numbers the values its rows use densely, in
        # ascending order; one in no context stands at 0
        used = [set() for _ in pos]
        for rows, scope in zip(model.rows, self.scope):
            for m, column in zip(scope, zip(*rows)):
                used[m].update(column)
        self.values = [sorted(vs) or [0] for vs in used]
        self.bit = [dict(zip(vs, range(len(vs)))) for vs in self.values]
        self.dom = [(1 << len(vs)) - 1 for vs in self.values]
        self.table = []
        for rows, scope in zip(model.rows, self.scope):
            columns = [({}, self.bit[m]) for m in scope]
            for r, row in enumerate(rows):
                for (column, bit), v in zip(columns, row):
                    b = bit[v]
                    column[b] = column.get(b, 0) | 1 << r
            self.table.append([tuple(column.items()) for column, _ in columns])
        self.rows = model.rows
        self.modulus = scenario.outcome_modulus
        self.alive = [(1 << len(rows)) - 1 for rows in model.rows]
        self.size = [len(rows) for rows in model.rows]
        self.seen = [[None] * len(rows) for rows in model.rows]
        self.trail: list[tuple[int, int]] = []
        self.consistent = self._propagate(range(len(self.scope)))
        self.unseen = list(self.size)
        self.fresh = [c for c, n in enumerate(self.unseen) if n]

    def _propagate(self, pending) -> bool:
        """Generalized arc consistency: drop every row that disagrees with
        a domain and every value that a containing context no longer
        supports, until nothing changes.  A context's alive rows are the
        AND, over its positions, of the OR of the row masks of the values
        still in the domain.  False on a wipe-out."""
        dom, alive, size, trail = self.dom, self.alive, self.size, self.trail
        queue = deque(dict.fromkeys(pending))
        queued = set(queue)
        while queue:
            c = queue.popleft()
            queued.discard(c)
            scope, table = self.scope[c], self.table[c]
            old = rows = alive[c]
            for m, column in zip(scope, table):
                mask = dom[m]
                keep = 0
                for b, bits in column:
                    if mask >> b & 1:
                        keep |= bits
                rows &= keep
            if not rows:
                return False
            if rows != old:
                trail.append((c, old))
                alive[c] = rows
                size[c] = rows.bit_count()
            for m, column in zip(scope, table):
                mask = dom[m]
                support = 0
                for b, bits in column:
                    if bits & rows:
                        support |= 1 << b
                if support != mask:
                    trail.append((~m, mask))
                    dom[m] = support
                    for other in self.watch[m]:
                        if other != c and other not in queued:
                            queued.add(other)
                            queue.append(other)
        return True

    def _assign(self, c: int, r: int) -> bool:
        """Fix context ``c`` to row ``r`` and propagate."""
        dom, bit, trail = self.dom, self.bit, self.trail
        pending = [c]
        for m, v in zip(self.scope[c], self.rows[c][r]):
            b = bit[m][v]
            mask = dom[m]
            if not mask >> b & 1:
                return False
            if mask != 1 << b:
                trail.append((~m, mask))
                dom[m] = 1 << b
                pending.extend(self.watch[m])
        return self._propagate(pending)

    def _undo(self, mark: int) -> None:
        dom, alive, size, trail = self.dom, self.alive, self.size, self.trail
        while len(trail) > mark:
            k, old = trail.pop()
            if k < 0:
                dom[~k] = old
            else:
                alive[k] = old
                size[k] = old.bit_count()

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

        Each alive mask then has one set bit, the context's row.  Arc
        consistency makes those rows agree, so every measurement in a
        context has one value left; measurements in no context range over
        Z_d.  One solution takes each domain's least value, numbered by its
        lowest set bit, which is 0 for a measurement in no context; all of
        them list each covered domain from its set bits and the others as
        Z_d.
        """
        g = tuple(mask.bit_length() - 1 for mask in self.alive)
        for c, r in enumerate(g):
            if self.seen[c][r] is None:
                self.seen[c][r] = g
                self.unseen[c] -= 1
        self.fresh = [c for c in self.fresh if self.unseen[c]]
        if not find_all:
            return [tuple(vs[(mask & -mask).bit_length() - 1]
                          for mask, vs in zip(self.dom, self.values))]
        return list(product(*([vs[b] for b in _set_bits(mask)] if watch else
                              range(self.modulus) for mask, vs, watch
                              in zip(self.dom, self.values, self.watch))))

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
                rows = sorted(_set_bits(self.alive[c]),
                              key=lambda r: seen[r] is not None)
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


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, in ascending order.  Up
    to eight are peeled off one lowest bit at a time, which is cheapest
    for the small masks of the clique search; more are selected from the
    binary digits, bit 0 first, which costs one pass at any width."""
    if mask.bit_count() > 8:
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)
        return list(compress(range(len(digits)), digits))
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


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
