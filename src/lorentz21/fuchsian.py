"""Surface-group presentations and their representations into PSL(2,R).

Words are tuples of signed generator indices: +k means generator k
(1-based), -k its inverse.  The presentation of a genus g surface uses
generators a_1, b_1, .., a_g, b_g numbered 1..2g with the single relator
prod_i [a_i, b_i].

A representation is one stack of letter steps, in the order a_1,
a_1^-1, b_1, .. of `letter_step` and `signed_letters`: word evaluation,
ball enumeration with matrix deduplication, the affine cocycle and the
Euler class (from lifts of the letters to the universal cover of RP^1)
all read it.  Also here: axes of hyperbolic elements and the regular
polygon construction of a discrete cocompact representation.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .minkowski import (adjugate, canonical_signs, finite, json_array, json_fields, mat2_fold,
                        mat2_of, mat2_stack, row_keys, rp1_from_thetas, rp1_stack, rp1_units,
                        unnormalizable, unnormalizable_cause)


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


def letter_step(x):
    """Index of the signed letter x (scalar or array) in the step order
    a_1, a_1^-1, b_1, b_1^-1, .. of `steps()`."""
    return 2 * (np.abs(x) - 1) + (x < 0)


def signed_letters(genus):
    """The signed letters 1, -1, 2, -2, .., 2g, -2g in letter_step order."""
    return np.arange(1, 2 * genus + 1).repeat(2) * np.tile([1, -1], 2 * genus)


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
    """A genus-g surface group mapped into PSL(2,R), held as one
    (4g, 2, 2) stack of letter steps in letter_step order: each generator
    in Mat2's normal form, then its inverse, the Mat2-normalized
    adjugate.  `generators` are the even rows."""

    def __init__(self, genus, generators):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        gens = np.array(generators, dtype=float)
        if gens.shape != (2 * genus, 2, 2):
            raise ValueError("expected %d generator 2x2 matrices" % (2 * genus))
        if unnormalizable(gens).any():
            raise ValueError("generators must have a finite positive determinant")
        gens = mat2_stack(gens)
        self.genus = genus
        self._steps = np.stack([gens, mat2_stack(adjugate(gens))], axis=1).reshape(-1, 2, 2)
        self._steps.flags.writeable = False  # generators and inverses stay paired
        self.generators = self._steps[::2]

    def relator(self):
        return surface_relator(self.genus)

    def evaluate(self, w):
        """The (2, 2) matrix of the word w, Mat2-normalized after each letter."""
        w = np.array(w, dtype=int).reshape(-1)
        bad = (w == 0) | (np.abs(w) > 2 * self.genus)
        if bad.any():
            raise ValueError("%d is not a generator index for genus %d"
                             % (w[np.argmax(bad)], self.genus))
        return mat2_fold(self._steps[letter_step(w)])[0]

    def steps(self):
        """The (4g, 2, 2) letter-step stack."""
        return self._steps

    def relator_defect(self):
        """Max-norm distance of the evaluated relator from +-identity."""
        r = self.evaluate(self.relator())
        return float(min(np.abs(r - np.eye(2)).max(), np.abs(r + np.eye(2)).max()))

    def is_valid(self, tol=1e-8):
        return self.relator_defect() < tol

    def conjugate(self, c):
        """The representation g -> c g c^-1, c normalized by mat2_of first."""
        c = mat2_of(c)
        return Representation(self.genus, mat2_stack(c @ self.generators) @ mat2_of(adjugate(c)))

    def to_json(self):
        return {"genus": self.genus, "generators": self.generators.tolist()}

    @classmethod
    def from_json(cls, data):
        genus, generators = json_fields(data, ("genus", "generators"), "representation")
        if isinstance(genus, bool) or not isinstance(genus, int):
            raise ValueError("genus must be an integer, not %r" % (genus,))
        return cls(genus, [finite(g, "generator entries")
                           for g in json_array(generators, "generators")])

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _disc_rotation(phi):
    return np.array([[np.exp(1j * phi / 2), 0.0], [0.0, np.exp(-1j * phi / 2)]])


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
    shift = np.array([[math.cosh(d / 2), math.sinh(d / 2)], [math.sinh(d / 2), math.cosh(d / 2)]],
                     dtype=complex)

    def frame(j):
        return _disc_rotation(2 * math.pi * (j + 0.5) / n) @ shift

    half = _disc_rotation(math.pi)

    def pairing(j):
        # sides j and j ^ 2 are paired: 4i, 4i + 2 by a_i and 4i + 1, 4i + 3 by b_i
        return frame(j) @ half @ np.linalg.inv(frame(j ^ 2))

    gens = np.array([m for k in reversed(range(g))
                     for m in (np.linalg.inv(pairing(4 * k + 1)), pairing(4 * k))])
    real = _CAYLEY @ gens @ _CAYLEY_INV
    if np.any(np.abs(real.imag).max(axis=(1, 2)) > 1e-9 * np.abs(real).max(axis=(1, 2))):
        raise RuntimeError("polygon generator failed to be real")
    rep = Representation(g, real.real)
    if not rep.is_valid(1e-8):
        raise RuntimeError("polygon relator defect %.3e" % rep.relator_defect())
    return rep


# decimal digits of the matrix entries that identify a GroupBall element
KEY_DIGITS = 6
# rows formed at a time: a GroupBall level's candidates, GroupBall.evaluate's
# products and adshull's fixed points
EVALUATE_BLOCK = 2 ** 14
_MIX = np.array([0xBF58476D1CE4E5B9, 0x94D049BB133111EB], dtype=np.uint64)


def _key_hash(keys):
    """A 64-bit hash of each `row_keys` key, its words folded in one at a
    time by splitmix64's finalizer.  Equal keys hash equal, so a hash only
    filters: GroupBall compares full keys wherever two hashes agree."""
    h = np.zeros(len(keys), dtype=np.uint64)
    for word in keys.view(np.uint64).reshape(len(keys), -1).T:
        h ^= word
        for shift, mix in zip((30, 27), _MIX):
            h ^= h >> np.uint64(shift)
            h *= mix
        h ^= h >> np.uint64(31)
    return h


def _in_sorted(table, x):
    """Whether each value of x is in the sorted, nonempty array table."""
    return table[np.minimum(np.searchsorted(table, x), len(table) - 1)] == x


def _new_rows(elements, hashes, known):
    """Indices, in order, of the rows of elements[known:] whose key is
    neither a row's before `known` nor an earlier row's after it.  A row
    whose hash no other row shares is new; the rest are decided on their
    full keys, against the rows before `known` that share their hashes."""
    order = np.argsort(hashes[:known])
    seen, h = hashes[:known][order], hashes[known:]
    twins = np.argsort(h)
    same = h[twins[1:]] == h[twins[:-1]]
    suspect = np.zeros(len(h), dtype=bool)
    suspect[twins[1:][same]] = suspect[twins[:-1][same]] = True
    del twins, same
    suspect |= _in_sorted(seen, h)
    rows = np.flatnonzero(suspect)
    if len(rows):
        keys = row_keys(elements[known + rows].reshape(-1, 4), KEY_DIGITS)
        old = order[_in_sorted(np.sort(h[rows]), seen)]
        old = row_keys(elements[old].reshape(-1, 4), KEY_DIGITS)
        first = np.sort(np.unique(keys, return_index=True)[1])
        suspect[rows[first[~np.isin(keys[first], old)]]] = False
    return np.flatnonzero(~suspect)


class GroupBall:
    """All reduced words of length <= radius, one per distinct matrix.

    Stored as arrays in breadth-first order: `elements` holds the
    (N, 2, 2) canonical matrices, and element i is element `parent[i]`
    times the generator `letter[i]` (signed index; 0 for the identity).
    Words of length r occupy `offsets[r]:offsets[r + 1]`, so the first
    `offsets[r + 1]` entries are exactly the radius-r ball.  Matrices
    are identified by their entries rounded to KEY_DIGITS; each level
    extends only the new elements of the level before, since a word
    equal to an earlier one has no new products.  A level's candidates
    are formed in blocks straight after the known elements, with a
    64-bit hash of each key; a candidate whose hash no known element and
    no other candidate shares is new, and the few others are decided on
    their full keys: new if no known element has the key and no earlier
    candidate does.  The new ones are then packed down in place.
    """

    def __init__(self, rep, radius):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = radius
        self.genus = rep.genus
        letters, steps = signed_letters(rep.genus), rep.steps()
        elements, parent, letter = np.eye(2)[None], np.array([-1]), np.array([0])
        hashes = _key_hash(row_keys(elements.reshape(-1, 4), KEY_DIGITS))
        self.offsets = [0, 1]
        per_block = max(1, EVALUATE_BLOCK // len(letters))
        for _ in range(radius):
            lo, hi = self.offsets[-2:]
            # every parent but the identity has one letter that cancels
            end = hi + (hi - lo) * len(letters) - np.count_nonzero(letter[lo:hi])
            known = (elements, parent, letter, hashes)
            elements, parent, letter, hashes = [np.empty((end,) + a.shape[1:], dtype=a.dtype)
                                                for a in known]
            for grown, a in zip((elements, parent, letter, hashes), known):
                grown[:hi] = a[:hi]
            del known
            at, cause = hi, None
            for a in range(lo, hi, per_block):
                b = min(a + per_block, hi)
                par = np.repeat(np.arange(a, b), len(letters))
                let = np.tile(letters, b - a)
                reduced = letter[par] != -let
                with np.errstate(over="ignore", invalid="ignore"):
                    prods = (elements[a:b, None] @ steps[None]).reshape(-1, 2, 2)[reduced]
                # the level's refusal is the one a single pass over it makes:
                # an overflow in any block before a lost determinant
                block_cause = unnormalizable_cause(prods)
                if block_cause == "overflows":
                    raise ValueError("a product of the generators overflows")
                cause = cause or block_cause
                if cause is not None:
                    continue
                to = at + len(prods)
                elements[at:to] = mat2_stack(prods)
                parent[at:to], letter[at:to] = par[reduced], let[reduced]
                hashes[at:to] = _key_hash(row_keys(elements[at:to].reshape(-1, 4), KEY_DIGITS))
                at = to
            if cause is not None:
                raise ValueError("a product of the generators %s" % cause)
            new = hi + _new_rows(elements, hashes, hi)
            # new[i] >= hi + i, so each block reads only rows not yet overwritten
            for a in range(0, len(new), EVALUATE_BLOCK):
                rows = new[a:a + EVALUATE_BLOCK]
                for arr in (elements, parent, letter, hashes):
                    arr[hi + a:hi + a + len(rows)] = arr[rows]
            self.offsets.append(hi + len(new))
        # views: past the ball lie only the last level's repeated candidates
        n = self.offsets[-1]
        self.elements, self.parent, self.letter = elements[:n], parent[:n], letter[:n]

    def __len__(self):
        return len(self.elements)

    def words(self):
        """(N, radius) int array: row i is element i's word, zero-padded
        on the right, built one level at a time as its parent's word,
        then its letter."""
        words = np.zeros((len(self), self.radius), dtype=int)
        for r, (lo, hi) in enumerate(zip(self.offsets[1:-1], self.offsets[2:])):
            words[lo:hi] = words[self.parent[lo:hi]]
            words[lo:hi, r] = self.letter[lo:hi]
        return words

    @functools.cached_property
    def _index(self):
        """The elements' keys, sorted, and the element each one names,
        built at the first `find`: the keys are unique, so one argsort."""
        keys = row_keys(self.elements.reshape(-1, 4), KEY_DIGITS)
        order = np.argsort(keys)
        return keys[order], order

    def find(self, mats):
        """Ball index of each matrix in a (M, 2, 2) stack, or -1 where
        the matrix (up to sign) is not in the ball."""
        mats = canonical_signs(np.asarray(mats, dtype=float))
        keys = row_keys(mats.reshape(-1, 4), KEY_DIGITS)
        sorted_keys, key_order = self._index
        pos = np.minimum(np.searchsorted(sorted_keys, keys), len(self) - 1)
        idx = key_order[pos]
        hit = (sorted_keys[pos] == keys) & (
            np.abs(self.elements[idx] - mats).max(axis=(1, 2)) < 1e-5)
        return np.where(hit, idx, -1)

    def evaluate(self, hol):
        """A holonomy with a `genus` and a letter_step-ordered `steps()`
        stack (Representation, flatspace.TranslationCocycle) along the
        ball's words, one level at a time; nothing is renormalized.  A
        product of finite steps past the float range is invalid; a
        non-finite step is carried through."""
        if hol.genus != self.genus:
            raise ValueError("a genus-%d representation cannot be evaluated on "
                             "genus-%d words" % (hol.genus, self.genus))
        steps = hol.steps()
        step = letter_step(self.letter)
        out = np.empty((len(self),) + steps.shape[1:], dtype=steps.dtype)
        out[0] = np.eye(steps.shape[1])
        # in blocks, as the gathered factors of a whole level would be
        # alive together; matmul rows are independent, so the bits agree
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(self.offsets[1:-1], self.offsets[2:]):
                for a in range(lo, hi, EVALUATE_BLOCK):
                    b = min(a + EVALUATE_BLOCK, hi)
                    out[a:b] = out[self.parent[a:b]] @ steps[step[a:b]]
        if np.isfinite(steps).all() and not np.isfinite(out).all():
            raise ValueError("a product along the ball's words overflows")
        return out


def axis(m):
    """Fixed points and translation length of a hyperbolic element, a
    (2, 2) matrix in Mat2's normal form (not renormalized).

    Returns the attracting and the repelling fixed point as unit vectors
    in rp1_units' normal form, and the translation length 2 arccosh(|tr|/2).
    """
    m = np.asarray(m, dtype=float)
    tr = float(m[0, 0] + m[1, 1])
    if abs(tr) <= 2.0 + 1e-9:
        raise ValueError("element is not hyperbolic (|trace| = %.6f)" % abs(tr))
    vals, vecs = np.linalg.eig(m)
    i_att = int(np.argmax(np.abs(vals.real)))
    att, rep = rp1_units(vecs[:, [i_att, 1 - i_att]].real.T)
    return att, rep, 2.0 * math.acosh(abs(tr) / 2.0)


def _sigma(mat, x):
    """Image of x in R under the unique lift of the projective action of
    mat with lift(0) in [0, 1)."""
    vs = rp1_from_thetas([0.0, x])
    a0, a1 = rp1_stack((mat @ vs[:, :, None])[:, :, 0])[1].tolist()
    return math.floor(x) + (a1 if a0 <= a1 else a1 + 1.0)


def euler_class(rep):
    """Euler class of the circle action of a surface-group representation.

    Each generator g is lifted to the homeomorphism sigma_g of R sending
    0 into [0, 1); the lift of an inverse letter is sigma_{g^-1} less the
    integer that makes it undo sigma_g.  Composed along the relator these
    lifts are translation by an integer, read off at 0.  The sign
    convention makes the discrete cocompact polygon representations come
    out at 2 - 2g.
    """
    if not np.abs(rep.evaluate(rep.relator()) - np.eye(2)).max() < 1e-6:
        raise ValueError("relator is not central; representation invalid")
    steps = rep.steps()
    x = 0.0
    for letter in reversed(rep.relator()):
        k = letter_step(letter)
        if letter > 0:
            x = _sigma(steps[k], x)
        else:
            y = _sigma(steps[k], x)
            x = y - round(_sigma(steps[k - 1], y) - x)  # steps[k - 1]: the generator
    shift = round(x)
    if abs(x - shift) > 1e-6:
        raise EllipticDegeneracyError("lifted relator moves 0 by %.6f, not an integer" % x)
    return -shift


def milnor_wood_ok(rep):
    return abs(euler_class(rep)) <= max(0, 2 * rep.genus - 2)
