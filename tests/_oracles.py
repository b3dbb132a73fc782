"""Dense-matrix oracle for Pauli arithmetic, shared across test modules."""

import numpy as np

from contextuality.pauli import GaussianStateVector, PauliOperator

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def op_matrix(p: PauliOperator) -> np.ndarray:
    """i^phase times the tensor product of single-qubit factors
    i^{x z} X^x Z^z, qubit 1 at the most significant bit."""
    out = np.array([[1]], dtype=complex)
    for k in range(p.n - 1, -1, -1):
        xb = (p.x >> k) & 1
        zb = (p.z >> k) & 1
        fac = np.eye(2, dtype=complex)
        if xb:
            fac = fac @ _X
        if zb:
            fac = fac @ _Z
        fac = (1j ** (xb * zb)) * fac
        out = np.kron(out, fac)
    return (1j ** p.phase) * out


def all_ops(n):
    return [PauliOperator(n, x, z, ph)
            for x in range(1 << n) for z in range(1 << n) for ph in range(4)]


def state_vector(v: GaussianStateVector) -> np.ndarray:
    return np.array([re + 1j * im for re, im in v.entries], dtype=complex)


# --- Label-dict reference for the splitting lemma ------------------------
#
# These follow the definitions directly on label dicts, using only the
# parent's label ``add``/``defined`` and tuple arithmetic in the group:
# the embedding by repeated addition, orbits as sets of translates, and
# each check as a loop over labels.  Violations come back as lists and
# failures raise the exception class the definition names.

from contextuality.errors import PreconditionError, StructureError  # noqa: E402


class SplittingOracle:
    def __init__(self, q):
        parent, action = q.parent, q.action
        self.parent, self.action = parent, action
        self.embedding = {}
        for a in action.elements():
            x = parent.identity
            for coeff, img in zip(a, action.generator_images):
                for _ in range(coeff):
                    x = parent.add(x, img)
            self.embedding[a] = x
        order = {x: i for i, x in enumerate(parent.elements)}
        self.orbit_of = {}
        for x in parent.elements:
            orbit = {parent.add(img, x) for img in self.embedding.values()}
            self.orbit_of[x] = f"[{min(orbit, key=order.__getitem__)}]"

    def act(self, a, x):
        return self.parent.add(self.embedding[tuple(a)], x)

    def value_at(self, x, base):
        for a in self.action.elements():
            if self.act(a, base) == x:
                return a
        raise AssertionError(f"{x!r} not in the orbit of {base!r}")

    def subset_violations(self, labels):
        labs = list(labels)
        seen = set(labs)
        if len(seen) != len(labs):
            return ["duplicate labels in subset"]
        bad = []
        for x in labs:
            if x not in self.orbit_of:
                bad.append(f"unknown label {x!r}")
            elif any(self.act(a, x) not in seen
                     for a in self.action.elements()):
                bad.append(f"subset not action-invariant at {x!r}")
        for x in labs:
            for y in labs:
                if (self.parent.defined(x, y)
                        and self.parent.add(x, y) not in seen):
                    bad.append(f"subset not sum-closed at ({x!r}, {y!r})")
        return bad

    def splitting_violations(self, labels, s):
        bad = self.subset_violations(labels)
        bad += [f"splitting undefined at {x!r}" for x in labels if x not in s]
        if bad:
            return bad
        for x in labels:
            for y in labels:
                if self.parent.defined(x, y):
                    if (tuple(s[self.parent.add(x, y)])
                            != self.action.add(s[x], s[y])):
                        bad.append(f"not a homomorphism at ({x!r}, {y!r})")
        for a, img in self.embedding.items():
            if img in s and tuple(s[img]) != a:
                bad.append(f"does not retract the embedding at i({a})")
        return bad

    def right_splitting_violations(self, labels, h):
        bad = self.subset_violations(labels)
        if bad:
            return bad
        orbits = list(dict.fromkeys(self.orbit_of[x] for x in labels))
        for qx in orbits:
            if qx not in h:
                bad.append(f"section undefined at {qx}")
            elif self.orbit_of.get(h[qx]) != qx:
                bad.append(f"not a section at {qx}")
        if bad:
            return bad
        for qx in orbits:
            for qy in orbits:
                x, y = h[qx], h[qy]
                if not self.parent.defined(x, y):
                    continue
                z = self.parent.add(x, y)
                if h[self.orbit_of[z]] != z:
                    bad.append(f"not a homomorphism at ({qx}, {qy})")
        return bad

    def require_trivialisation(self, labels, phi):
        bad = self.subset_violations(labels)
        if bad:
            raise PreconditionError("; ".join(bad))
        for x in labels:
            if x not in phi:
                raise PreconditionError(f"trivialisation undefined at {x!r}")
            if phi[x][1] != self.orbit_of[x]:
                raise StructureError(f"second component at {x!r}")
        if len({(tuple(phi[x][0]), phi[x][1]) for x in labels}) != len(
                labels):
            raise StructureError("not injective")
        for x in labels:
            for y in labels:
                if self.parent.defined(x, y):
                    z = self.parent.add(x, y)
                    want = (self.action.add(phi[x][0], phi[y][0]),
                            self.orbit_of[z])
                    if want != (tuple(phi[z][0]), phi[z][1]):
                        raise StructureError(f"not a homomorphism at {x, y}")
        for a, img in self.embedding.items():
            if img in phi and tuple(phi[img][0]) != a:
                raise StructureError(f"does not extend the embedding at {a}")

    def splitting_from_trivialisation(self, labels, phi):
        self.require_trivialisation(labels, phi)
        return {x: tuple(phi[x][0]) for x in labels}

    def trivialisation_from_right_splitting(self, labels, h):
        bad = self.right_splitting_violations(labels, h)
        if bad:
            raise PreconditionError("not a right splitting")
        phi = {x: (self.value_at(x, h[self.orbit_of[x]]), self.orbit_of[x])
               for x in labels}
        self.require_trivialisation(labels, phi)
        return phi
