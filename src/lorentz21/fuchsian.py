"""Surface-group presentations and their representations into PSL(2,R).

Words are tuples of signed generator indices: +k means generator k
(1-based), -k its inverse.  The presentation of a genus g surface uses
generators a_1, b_1, .., a_g, b_g numbered 1..2g with the single relator
prod_i [a_i, b_i].

Contains the regular polygon construction of a discrete cocompact
representation, word evaluation, ball enumeration with matrix
deduplication, axes of hyperbolic elements, and the Euler class of the
induced circle action computed from lifts of the generators to the
universal cover of RP^1.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .minkowski import Mat2, RP1Point, adjugate, canonical_signs, finite, mat2_stack


class EllipticDegeneracyError(RuntimeError):
    """Raised when circle-lift tracking is ambiguous beyond tolerance."""


def reduce_word(w):
    out = []
    for x in w:
        if x == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(int(x))
    return tuple(out)


def invert_word(w):
    return tuple(-x for x in reversed(w))


def concat(*words):
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(int(x))
    return tuple(out)


def letter_step(x):
    """Index of the signed letter x (scalar or array) in the step order
    a_1, a_1^-1, b_1, b_1^-1, .. of `steps()`."""
    return 2 * (np.abs(x) - 1) + (x < 0)


def surface_relator(genus):
    """The word prod_{i=1..g} [a_i, b_i], generators numbered 1..2g."""
    rel = []
    for i in range(genus):
        a, b = 2 * i + 1, 2 * i + 2
        rel += [a, b, -a, -b]
    return tuple(rel)


def parse_word(text, genus=None):
    """Parse 'a1 b1 A1' or 'g3 G2' style words; uppercase means inverse."""
    out = []
    for tok in text.split():
        kind, num = tok[0], tok[1:]
        if not num.isdigit():
            raise ValueError("bad generator token %r" % tok)
        i = int(num)
        if i < 1:
            raise ValueError("bad generator index in %r" % tok)
        if kind in "aA":
            idx = 2 * i - 1
        elif kind in "bB":
            idx = 2 * i
        elif kind in "gG":
            idx = i
        else:
            raise ValueError("bad generator token %r" % tok)
        if genus is not None and idx > 2 * genus:
            raise ValueError("generator %r out of range for genus %d" % (tok, genus))
        out.append(-idx if kind.isupper() else idx)
    return reduce_word(out)


def format_word(w):
    toks = []
    for x in w:
        i = abs(x)
        name = "a%d" % ((i + 1) // 2) if i % 2 == 1 else "b%d" % (i // 2)
        toks.append(name.upper() if x < 0 else name)
    return " ".join(toks)


class Representation:
    """A genus-g surface group mapped into PSL(2,R), one Mat2 per generator."""

    def __init__(self, genus, generators):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if len(generators) != 2 * genus:
            raise ValueError("expected %d generator matrices" % (2 * genus))
        self.genus = genus
        self.generators = [g if isinstance(g, Mat2) else Mat2(g) for g in generators]

    @classmethod
    def trivial(cls, genus):
        return cls(genus, [Mat2.identity() for _ in range(2 * genus)])

    def relator(self):
        return surface_relator(self.genus)

    def evaluate(self, w):
        out = Mat2.identity()
        for x in w:
            g = self.generators[abs(x) - 1]
            out = out @ (g if x > 0 else g.inverse())
        return out

    def steps(self):
        """(4g, 2, 2) generator matrices in letter_step order; inverse
        letters use the exact adjugate."""
        gens = np.array([g.m for g in self.generators])
        return np.stack([gens, adjugate(gens)], axis=1).reshape(-1, 2, 2)

    def relator_defect(self):
        """Max-norm distance of the evaluated relator from +-identity."""
        r = self.evaluate(self.relator()).m
        return float(min(np.abs(r - np.eye(2)).max(), np.abs(r + np.eye(2)).max()))

    def is_valid(self, tol=1e-8):
        return self.relator_defect() < tol

    def conjugate(self, c):
        c = c if isinstance(c, Mat2) else Mat2(c)
        cinv = c.inverse()
        return Representation(self.genus, [c @ g @ cinv for g in self.generators])

    def to_json(self):
        return {
            "genus": self.genus,
            "generators": [[[float(v) for v in row] for row in g.m] for g in self.generators],
        }

    @classmethod
    def from_json(cls, data):
        return cls(int(data["genus"]), [finite(g, "generator entries") for g in data["generators"]])

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _disc_rotation(phi):
    return np.array([[np.exp(1j * phi / 2), 0.0], [0.0, np.exp(-1j * phi / 2)]])


def _disc_translation(t):
    c, s = math.cosh(t / 2), math.sinh(t / 2)
    return np.array([[c, s], [s, c]], dtype=complex)


# Cayley map disc -> upper half plane, z -> i(1+z)/(1-z).
_CAYLEY = np.array([[1j, 1j], [-1.0, 1.0]])
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def regular_polygon_rep(g):
    """Discrete cocompact representation from the regular 4g-gon.

    The polygon is centered at the origin of the disc model with vertex
    angle pi/(2g), sides labelled by the boundary word
    a_1 b_1 a_1^{-1} b_1^{-1} ... ; each side-pairing is (rotation to the
    side) o (half turn at the side midpoint) o (rotation back from the
    paired side).  Generators are read off the side pairings in the
    order that makes the commutator relator close up, which was checked
    against the vertex cycle of the tiling.
    """
    if g < 2:
        raise ValueError("genus must be >= 2")
    n = 4 * g
    d = math.acosh(1.0 / math.tan(math.pi / n))  # center to side midpoint

    def frame(j):
        return _disc_rotation(2 * math.pi * (j + 0.5) / n) @ _disc_translation(d)

    partner = {}
    for i in range(g):
        partner[4 * i] = 4 * i + 2
        partner[4 * i + 2] = 4 * i
        partner[4 * i + 1] = 4 * i + 3
        partner[4 * i + 3] = 4 * i + 1

    half = _disc_rotation(math.pi)
    pairing = {}
    for j in range(n):
        pairing[j] = frame(j) @ half @ np.linalg.inv(frame(partner[j]))

    gens = []
    for i in range(g):
        k = g - 1 - i
        gens.append(np.linalg.inv(pairing[4 * k + 1]))
        gens.append(pairing[4 * k])

    real_gens = []
    for m in gens:
        mr = _CAYLEY @ m @ _CAYLEY_INV
        if np.abs(mr.imag).max() > 1e-9 * np.abs(mr).max():
            raise RuntimeError("polygon generator failed to be real")
        real_gens.append(mr.real)
    rep = Representation(g, real_gens)
    if not rep.is_valid(1e-8):
        raise RuntimeError("polygon relator defect %.3e" % rep.relator_defect())
    return rep


# decimal digits of the matrix entries that identify a GroupBall element
KEY_DIGITS = 6


class GroupBall:
    """All reduced words of length <= radius, one per distinct matrix.

    Stored as arrays in breadth-first order: `elements` holds the
    (N, 2, 2) canonical matrices, and element i is element `parent[i]`
    times the generator `letter[i]` (signed index; 0 for the identity).
    Words of length r occupy `offsets[r]:offsets[r + 1]`, so the first
    `offsets[r + 1]` entries are exactly the radius-r ball.  Matrices
    are identified by their entries rounded to KEY_DIGITS; each level
    extends only the new elements of the level before, since a word
    equal to an earlier one has no new products.
    """

    def __init__(self, rep, radius):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = radius
        self.genus = rep.genus
        letters = np.array([s * (i + 1) for i in range(2 * rep.genus) for s in (1, -1)])
        steps = np.array([g.m for m in rep.generators for g in (m, m.inverse())])
        mats, lets = np.eye(2)[None], np.array([0])
        levels = [(mats, np.array([-1]), lets)]
        keys = self._keys(mats)
        self.offsets = [0, 1]
        for _ in range(radius):
            prods = (mats[:, None] @ steps[None]).reshape(-1, 2, 2)
            par = np.repeat(np.arange(len(mats)), len(letters))
            let = np.tile(letters, len(mats))
            reduced = lets[par] != -let
            prods, par, let = prods[reduced], par[reduced], let[reduced]
            prods = mat2_stack(prods)
            level_keys = self._keys(prods)
            # first occurrence of each key in the level, minus known keys
            first = np.sort(np.unique(level_keys, return_index=True)[1])
            first = first[~np.isin(level_keys[first], keys)]
            mats, lets = prods[first], let[first]
            levels.append((mats, par[first] + self.offsets[-2], lets))
            keys = np.concatenate([keys, level_keys[first]])
            self.offsets.append(self.offsets[-1] + len(first))
        self.elements, self.parent, self.letter = (np.concatenate(a) for a in zip(*levels))
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    def _keys(self, mats):
        """One comparable key per matrix: its entries rounded to
        KEY_DIGITS (with -0.0 folded into 0.0), viewed as bytes."""
        flat = np.round(mats.reshape(-1, 4), KEY_DIGITS) + 0.0
        return np.ascontiguousarray(flat).view(np.dtype((np.void, 32))).ravel()

    def __len__(self):
        return len(self.elements)

    def word(self, i):
        out = []
        while i > 0:
            out.append(int(self.letter[i]))
            i = self.parent[i]
        return tuple(reversed(out))

    def words(self):
        return [self.word(i) for i in range(len(self))]

    def find(self, mats):
        """Ball index of each matrix in a (M, 2, 2) stack, or -1 where
        the matrix (up to sign) is not in the ball."""
        mats = canonical_signs(np.asarray(mats, dtype=float))
        keys = self._keys(mats)
        pos = np.minimum(np.searchsorted(self._sorted_keys, keys), len(self) - 1)
        idx = self._key_order[pos]
        hit = (self._sorted_keys[pos] == keys) & (
            np.abs(self.elements[idx] - mats).max(axis=(1, 2)) < 1e-5)
        return np.where(hit, idx, -1)

    def lookup(self, m):
        """Canonical (word, Mat2) of the ball element equal to m, or None."""
        if not isinstance(m, Mat2):
            m = Mat2(m)
        i = int(self.find(m.m[None])[0])
        return None if i < 0 else (self.word(i), Mat2(self.elements[i]))

    def evaluate(self, hol):
        """A holonomy with a `genus` and a letter_step-ordered `steps()`
        stack (Representation, flatspace.TranslationCocycle) along the
        ball's words, one level at a time; nothing is renormalized."""
        if hol.genus != self.genus:
            raise ValueError("a genus-%d representation cannot be evaluated on "
                             "genus-%d words" % (hol.genus, self.genus))
        steps = hol.steps()
        step = letter_step(self.letter)
        out = np.empty((len(self),) + steps.shape[1:], dtype=steps.dtype)
        out[0] = np.eye(steps.shape[1])
        for lo, hi in zip(self.offsets[1:-1], self.offsets[2:]):
            out[lo:hi] = out[self.parent[lo:hi]] @ steps[step[lo:hi]]
        return out


def axis(m):
    """Fixed points and translation length of a hyperbolic element.

    Returns (attracting RP1Point, repelling RP1Point, translation length
    2 arccosh(|tr|/2)).
    """
    if not isinstance(m, Mat2):
        m = Mat2(m)
    tr = m.trace()
    if abs(tr) <= 2.0 + 1e-9:
        raise ValueError("element is not hyperbolic (|trace| = %.6f)" % abs(tr))
    vals, vecs = np.linalg.eig(m.m)
    vals = vals.real
    i_att = int(np.argmax(np.abs(vals)))
    att = RP1Point(vecs[:, i_att].real)
    rep = RP1Point(vecs[:, 1 - i_att].real)
    length = 2.0 * math.acosh(abs(tr) / 2.0)
    return att, rep, length


def _sigma(mat, x):
    """Image of x in R under the unique lift of the projective action of
    mat with lift(0) in [0, 1)."""
    a0 = RP1Point.from_theta(0.0).apply(mat).theta
    a1 = RP1Point.from_theta(x).apply(mat).theta
    b1 = a1 if a0 <= a1 else a1 + 1.0
    return math.floor(x) + b1


def euler_class(rep):
    """Euler class of the circle action of a surface-group representation.

    Each generator g is lifted to the homeomorphism sigma_g of R sending
    0 into [0, 1); the lift of an inverse letter is sigma_{g^-1} less the
    integer that makes it undo sigma_g.  Composed along the relator these
    lifts are translation by an integer, read off at 0.  The sign
    convention makes the discrete cocompact polygon representations come
    out at 2 - 2g.
    """
    if not rep.evaluate(rep.relator()).is_identity(1e-6):
        raise ValueError("relator is not central; representation invalid")
    x = 0.0
    for letter in reversed(rep.relator()):
        g = rep.generators[abs(letter) - 1]
        if letter > 0:
            x = _sigma(g, x)
        else:
            y = _sigma(g.inverse(), x)
            x = y - round(_sigma(g, y) - x)
    shift = round(x)
    if abs(x - shift) > 1e-6:
        raise EllipticDegeneracyError("lifted relator moves 0 by %.6f, not an integer" % x)
    return -shift


def milnor_wood_ok(rep):
    return abs(euler_class(rep)) <= max(0, 2 * rep.genus - 2)
