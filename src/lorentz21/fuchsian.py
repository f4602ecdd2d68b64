"""Surface-group presentations and their representations into PSL(2,R).

Words are tuples of signed generator indices: +k means generator k
(1-based), -k its inverse.  The presentation of a genus g surface uses
generators a_1, b_1, .., a_g, b_g numbered 1..2g with the single relator
prod_i [a_i, b_i].

Group identity needs no matrices.  A Knuth-Bendix completion of the
presentation under the shortlex order of a_1 < a_1^-1 < b_1 < .., cut
at a word length, gives rewriting rules; the words no rule reduces
number the Cannon / Floyd-Plotnick growth series at every length, which
proves them the shortlex normal forms, one per group element.  The word
ball of a genus and radius (the normal forms, breadth first) is built
once and cached, and products of ball elements are rewritten to their
normal forms.

A representation is one stack of letter steps, in the order a_1,
a_1^-1, b_1, .. of `letter_step` and `signed_letters`: word evaluation,
the matrices along the word ball, the affine cocycle and the Euler class
(from lifts of the letters to the universal cover of RP^1) all read it.
Also here: axes of hyperbolic elements and the regular polygon
construction of a discrete cocompact representation.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .minkowski import (adjugate, json_array, json_fields, json_numbers, mat2_fold, mat2_of,
                        mat2_stack, rp1_from_thetas, rp1_stack, rp1_units, unnormalizable)


class EllipticDegeneracyError(RuntimeError):
    """Raised when circle-lift tracking is ambiguous beyond tolerance."""


class EnumerationCapError(RuntimeError):
    """A ball radius above HARD_CAP, refused before the ball is built."""


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
    a_1, a_1^-1, b_1, b_1^-1, .. of `Representation.steps`."""
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
    adjugate, read-only.  `generators` are the even rows."""

    def __init__(self, genus, generators):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        gens = np.array(generators, dtype=float)
        if gens.shape != (2 * genus, 2, 2):
            raise ValueError("expected %d generator 2x2 matrices" % (2 * genus))
        if unnormalizable(gens):
            raise ValueError("generators must have a finite positive determinant")
        gens = mat2_stack(gens)
        self.genus = genus
        self.steps = np.stack([gens, mat2_stack(adjugate(gens))], axis=1).reshape(-1, 2, 2)
        self.steps.flags.writeable = False  # generators and inverses stay paired
        self.generators = self.steps[::2]

    def evaluate(self, w):
        """The (2, 2) matrix of the word w, Mat2-normalized after each letter."""
        w = np.array(w, dtype=int).reshape(-1)
        bad = (w == 0) | (np.abs(w) > 2 * self.genus)
        if bad.any():
            raise ValueError("%d is not a generator index for genus %d"
                             % (w[np.argmax(bad)], self.genus))
        return mat2_fold(self.steps[letter_step(w)])[0]

    def relator_defect(self):
        """Max-norm distance of the evaluated relator from +-identity."""
        r = self.evaluate(surface_relator(self.genus))
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
        return cls(genus, [json_numbers(g, "generators[%d]" % i, shape=(2, 2))
                           for i, g in enumerate(json_array(generators, "generators"))])

    @classmethod
    def load(cls, path):
        """The representation in a JSON file, refused if it fails
        is_valid(1e-6); every command reads its representations here."""
        with open(path) as fh:
            rep = cls.from_json(json.load(fh))
        if not rep.is_valid(1e-6):
            raise ValueError("relator is not central; representation invalid")
        return rep


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


# rows formed at a time: GroupBall's level products, its evaluations and
# adshull's fixed points
EVALUATE_BLOCK = 2 ** 14

# the largest GroupBall radius (the radius-8 genus-2 ball has 7,579,441 words)
HARD_CAP = 8


def capped(radius):
    """radius; one above HARD_CAP is refused, the one rule of every ball."""
    if radius > HARD_CAP:
        raise EnumerationCapError("ball radius %d is above the cap %d" % (radius, HARD_CAP))
    return radius


def growth_series(genus, radius):
    """Cumulative ball sizes of the genus-g surface group in its standard
    generators, from the Floyd-Plotnick / Cannon rational growth function
    (Invent. Math. 88, 1987): (1 + 2z + .. + 2z^{2g-1} + z^{2g}) /
    (1 - (4g-2)(z + .. + z^{2g-1}) + z^{2g})."""
    n = 2 * genus
    num = [1] + [2] * (n - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (n - 1) + [1]
    spheres = []
    for k in range(radius + 1):
        s = num[k] if k <= n else 0
        s -= sum(den[j] * spheres[k - j] for j in range(1, min(k, n) + 1))
        spheres.append(s)
    return [int(c) for c in np.cumsum(spheres)]


def _rewrite(word, rules):
    """The word with every left side of `rules` replaced by its right
    side until none is left."""
    again = True
    while again:
        again = False
        for lhs, rhs in rules.items():
            if lhs in word:
                word, again = word.replace(lhs, rhs), True
    return word


def _completion(genus, longest):
    """Knuth-Bendix completion of the genus-g surface group under the
    shortlex order of letter_step, keeping only rules whose left side
    has at most `longest` letters: {left: right}, words as strings of
    chr(letter_step).  The free cancellations and the splits of the
    relator's cyclic conjugates and their inverses seed it; each round
    orients the pending equations, drops the rules a new left side
    makes redundant (their equations pend again), and adds the critical
    pairs of the new rules' overlaps.  Every rule is a relation of the
    group; the growth series decides whether the truncation is complete
    up to a length (see _rewriting)."""
    n = 4 * genus
    swap = {k: k ^ 1 for k in range(n)}

    def inverse(w):
        return w[::-1].translate(swap)

    relator = "".join(chr(k) for k in letter_step(np.array(surface_relator(genus))).tolist())
    pending = [(chr(k) + chr(k ^ 1), "") for k in range(n)]
    for c in (relator, inverse(relator)):
        for _ in range(n):
            c = c[1:] + c[0]
            pending += [(c[:k], inverse(c[k:])) for k in range(1, n)]
    rules = {}
    while pending:
        fresh = []
        while pending:
            u, v = (_rewrite(w, rules) for w in pending.pop())
            if u == v:
                continue
            if (len(u), u) < (len(v), v):
                u, v = v, u
            if len(u) > longest:
                continue
            pending += [(lhs, rules.pop(lhs)) for lhs in [lhs for lhs in rules if u in lhs]]
            rules[u] = v
            fresh.append(u)
        for lhs, rhs in rules.items():
            rules[lhs] = _rewrite(rhs, rules)
        for a in [u for u in fresh if u in rules]:
            for b in list(rules):
                for x, y in ((a, b), (b, a)):
                    pending += [(rules[x] + y[k:], x[:-k] + rules[y])
                                for k in range(1, min(len(x), len(y))) if x[-k:] == y[:k]]
    return rules


def _automaton(rules, n):
    """Aho-Corasick automaton of the rules' left sides over n letters:
    the (states, n) transition table and whether a left side ends at each
    state, that is, whether the word read so far is reducible."""
    delta, reducible = [[-1] * n], [False]
    for lhs in rules:
        s = 0
        for k in map(ord, lhs):
            if delta[s][k] < 0:
                delta[s][k] = len(delta)
                delta.append([-1] * n)
                reducible.append(False)
            s = delta[s][k]
        reducible[s] = True
    fail = [0] * len(delta)
    queue = []
    for k in range(n):
        if delta[0][k] < 0:
            delta[0][k] = 0
        else:
            queue.append(delta[0][k])
    for s in queue:  # breadth first: a failure target is settled before s
        reducible[s] = reducible[s] or reducible[fail[s]]
        for k in range(n):
            t = delta[s][k]
            if t < 0:
                delta[s][k] = delta[fail[s]][k]
            else:
                fail[t] = delta[fail[s]][k]
                queue.append(t)
    return np.array(delta), np.array(reducible)


@functools.cache
def _rewriting(genus, longest):
    """The rules of `_completion(genus, longest)` and their automaton,
    proved complete on words of length <= longest: the irreducible words
    of each length, counted over the automaton's states, must number the
    growth series' sphere.  Every rule is a relation, so each element
    keeps at least its shortlex least word irreducible; equal counts
    leave it exactly that one, so rewriting any word of length <= longest
    until no rule applies gives its shortlex normal form."""
    rules = _completion(genus, longest)
    delta, reducible = _automaton(rules, 4 * genus)
    # moves[s, t]: the letters that take state s to the irreducible state t
    moves = np.zeros((len(delta), len(delta)), dtype=int)
    np.add.at(moves, (np.arange(len(delta)).repeat(4 * genus), delta.ravel()), 1)
    moves[:, reducible] = 0
    counts, sizes = np.zeros(len(delta), dtype=int), growth_series(genus, longest)
    counts[0] = 1
    for r in range(1, longest + 1):
        counts = counts @ moves
        if counts.sum() != sizes[r] - sizes[r - 1]:
            raise RuntimeError("the genus-%d rewriting rules leave %d words of length %d, "
                               "not the growth series' %d"
                               % (genus, counts.sum(), r, sizes[r] - sizes[r - 1]))
    return rules, delta, reducible


@functools.cache
def _word_ball(genus, radius):
    """(children, step, offsets) of the genus-g word ball: the shortlex
    normal forms of length <= radius, the words `_rewriting` leaves
    irreducible, in breadth-first order.  Each word below the last level
    has children[i] children, which follow the children of the words
    before it; each word is its parent's, then the letter of letter_step
    step[i] (0 for the empty word).  A level is one gather of the
    automaton's transitions, and holds the growth series' sphere.  Cached
    in the smallest dtypes that hold 4g."""
    _, delta, reducible = _rewriting(genus, radius)
    n, small = 4 * genus, np.min_scalar_type(4 * genus)
    children, step = [], [np.zeros(1, dtype=small)]
    states, offsets = np.zeros(1, dtype=int), [0, 1]
    for _ in range(radius):
        nxt = delta[states].ravel()
        keep = np.flatnonzero(~reducible[nxt])
        children.append(np.bincount(keep // n, minlength=len(states)).astype(small))
        step.append((keep % n).astype(small))
        states = nxt[keep]
        offsets.append(offsets[-1] + len(keep))
    return np.concatenate(children or [np.zeros(0, dtype=small)]), np.concatenate(step), offsets


class GroupBall:
    """The ball of radius `radius` of a surface group, one word per
    element, and a representation's matrices along those words.

    The words are the genus's shortlex normal forms of length <= radius
    (`_word_ball`, one per group element, proved by the growth series),
    stored in breadth-first order: element i is element `parent[i]` times
    the letter of letter_step `step[i]` (0 for the identity), and the
    words of length r occupy `offsets[r]:offsets[r + 1]`, so the first
    `offsets[r + 1]` entries are exactly the radius-r ball.  `elements`
    holds the (N, 2, 2) Mat2-normalized matrices, formed one level at a
    time from the parents' in blocks; a product that overflows anywhere
    in a level is refused before one that lost its determinant.  A
    radius above HARD_CAP is refused before anything is built.
    """

    def __init__(self, rep, radius):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.radius = capped(radius)
        self.genus = rep.genus
        children, self.step, self.offsets = _word_ball(rep.genus, radius)
        self.parent = np.concatenate([[-1], np.arange(len(children)).repeat(children)])
        steps, step = rep.steps, self.step
        self.elements = elements = np.empty((len(self.parent), 2, 2))
        elements[0] = np.eye(2)
        for lo, hi in zip(self.offsets[1:-1], self.offsets[2:]):
            cause = None
            for a in range(lo, hi, EVALUATE_BLOCK):
                b = min(a + EVALUATE_BLOCK, hi)
                with np.errstate(over="ignore", invalid="ignore"):
                    prods = (np.take(elements, self.parent[a:b], axis=0)
                             @ np.take(steps, step[a:b], axis=0))
                block_cause = unnormalizable(prods)
                if block_cause == "overflows":
                    raise ValueError("a product of the generators overflows")
                cause = cause or block_cause
                if cause is None:
                    elements[a:b] = mat2_stack(prods)
            if cause is not None:
                raise ValueError("a product of the generators %s" % cause)

    def __len__(self):
        return len(self.parent)

    @functools.cached_property
    def _normal_forms(self):
        """Each element's word as a string of chr(letter_step), and the
        element each such string names."""
        words = [""]
        for p, k in zip(self.parent[1:].tolist(), self.step[1:].tolist()):
            words.append(words[p] + chr(k))
        return words, {w: i for i, w in enumerate(words)}

    def find(self, alphas, betas):
        """Ball index of each product of elements alphas[i] and betas[i]
        (index arrays), or -1 where the product lies outside the ball:
        their words' concatenation rewritten to its normal form by the
        rules `_rewriting` proves complete up to twice the radius."""
        rules = _rewriting(self.genus, 2 * self.radius)[0]
        words, index = self._normal_forms
        return np.array([index.get(_rewrite(words[a] + words[b], rules), -1)
                         for a, b in zip(np.asarray(alphas).tolist(), np.asarray(betas).tolist())],
                        dtype=int)

    def products(self, hol):
        """A holonomy with a `genus` and a letter_step-ordered `steps`
        stack (Representation, flatspace.TranslationCocycle) along the
        ball's words: yields (first row, products) for the identity, then
        for blocks of at most EVALUATE_BLOCK rows in ball order, each
        formed from its parents' products; only a level that another
        follows is held whole.  Nothing is renormalized.  A block with a
        non-finite product is refused as an overflow as soon as it is
        formed."""
        if hol.genus != self.genus:
            raise ValueError("a genus-%d representation cannot be evaluated on "
                             "genus-%d words" % (hol.genus, self.genus))
        steps, step = hol.steps, self.step
        level = np.eye(steps.shape[1], dtype=steps.dtype)[None]
        yield 0, level
        for lo, hi, up in zip(self.offsets[1:-1], self.offsets[2:], self.offsets):
            out = None
            if hi < len(self):
                out = np.empty((hi - lo,) + steps.shape[1:], dtype=steps.dtype)
            for a in range(lo, hi, EVALUATE_BLOCK):
                b = min(a + EVALUATE_BLOCK, hi)
                with np.errstate(over="ignore", invalid="ignore"):
                    block = (np.take(level, self.parent[a:b] - up, axis=0)
                             @ np.take(steps, step[a:b], axis=0))
                if not np.isfinite(block).all():
                    raise ValueError("a product along the ball's words overflows")
                if out is not None:
                    out[a - lo:b - lo] = block
                yield a, block
            level = out

    def evaluate(self, hol):
        """The (N, ...) stack of `products`, whole."""
        out = None
        for lo, block in self.products(hol):
            if out is None:
                out = np.empty((len(self),) + block.shape[1:], dtype=block.dtype)
            out[lo:lo + len(block)] = block
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
    if not rep.is_valid(1e-6):
        raise ValueError("relator is not central; representation invalid")
    steps = rep.steps
    x = 0.0
    for letter in reversed(surface_relator(rep.genus)):
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
