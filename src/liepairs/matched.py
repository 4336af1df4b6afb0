"""Direct structures on the small complexes for split-closed pairs.

When the image of the chosen complement is closed under the bracket, B
is itself a Lie algebra acting on the dual of A, and the small spaces
carry honest graded Lie brackets given in closed form: a Schouten
bracket on forms tensor exterior powers of B, and a Gerstenhaber
bracket on forms tensor tensor-powers of the enveloping algebra, whose
insertion product moves part of each inserted monomial onto the form
coefficient through the action of B.  These are built from the
structure constants alone, with no recursion-solved connection data, so
they serve as independent oracles for the transferred brackets.
"""

from fractions import Fraction
import itertools

from .core import Derivation, Vec, multi_splits, sort_sign
from .liepair import a_form_algebra
from .transfer import small_sdeg


def is_matched(splitting):
    """True when the bracket of two complement images stays in the span
    of the complement images."""
    sp = splitting
    for k in range(sp.r):
        for l in range(k + 1, sp.r):
            br = sp.struct_const(sp.m + k, sp.m + l)
            if any(w < sp.m for w in br):
                return False
    return True


def b_action_images(splitting):
    """Derivation images of each complement generator acting on the
    a-form generators (the dual of the flat action of B on A), one dict
    of letter images per B index."""
    sp = splitting
    fa = a_form_algebra(sp.pair)
    out = []
    for k in range(sp.r):
        img = {}
        for t in range(sp.m):
            vec = Vec()
            for s in range(sp.m):
                c = sp.struct_const(sp.m + k, s).get(t)
                if c:
                    vec.iadd_term(fa.odd_word(0, s), -c)
            if not vec.is_zero():
                img[(0, t)] = vec
        out.append(img)
    return out


class MatchedT:
    """Schouten bracket on keys (a-form word, tuple of B indices)."""

    def __init__(self, splitting):
        if not is_matched(splitting):
            raise ValueError("complement image is not bracket-closed")
        self.sp = splitting
        self.m, self.r = splitting.m, splitting.r
        self._cache = {}

    # letters: (0, s) for a-form generators, (1, k) for B generators

    def _letters(self, key):
        fw, xs = key
        return tuple((0, s) for s in fw[0]) + tuple((1, k) for k in xs)

    def _key_of(self, letters):
        fw = tuple(i for c, i in letters if c == 0)
        xs = tuple(i for c, i in letters if c == 1)
        return ((fw, ()), xs)

    def _normal(self, letters, coef):
        sign, sorted_ = sort_sign(letters)
        if sign == 0:
            return Vec()
        return Vec({self._key_of(sorted_): coef * sign})

    def _gen_bracket(self, g1, g2):
        """Bracket of two generators as a Vec over single letters."""
        sp = self.sp
        out = {}
        if g1[0] == 1 and g2[0] == 1:
            for w, c in sp.struct_const(sp.m + g1[1], sp.m + g2[1]).items():
                out[(1, w - sp.m)] = out.get((1, w - sp.m), 0) + c
        elif g1[0] == 1 and g2[0] == 0:
            # anchor action on the dual generator
            for s in range(sp.m):
                c = sp.struct_const(sp.m + g1[1], s).get(g2[1])
                if c:
                    out[(0, s)] = out.get((0, s), 0) - c
        elif g1[0] == 0 and g2[0] == 1:
            for g, c in self._gen_bracket(g2, g1).items():
                out[g] = out.get(g, 0) - c
        return {g: c for g, c in out.items() if c}

    def _br_seq(self, u, v):
        if (u, v) in self._cache:
            return self._cache[(u, v)]
        out = Vec()
        if len(u) == 0 or len(v) == 0:
            pass
        elif len(u) == 1 and len(v) == 1:
            for g, c in self._gen_bracket(u[0], v[0]).items():
                out.iadd_term(self._key_of((g,)), c)
        elif len(v) > 1:
            v1, vr = v[:1], v[1:]
            for key, c in self._br_seq(u, v1).items():
                out += self._normal(self._letters(key) + vr, c)
            s = -1 if (len(u) - 1) % 2 else 1
            for key, c in self._br_seq(u, vr).items():
                out += self._normal(v1 + self._letters(key), c * s)
        else:
            # single letter on the right: flip (the right degree is even
            # after the shift, so the swap costs a bare minus sign)
            out = -self._br_seq(v, u)
        self._cache[(u, v)] = out
        return out

    def bracket(self, x, y):
        out = Vec()
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                out.iadd_scaled(c1 * c2,
                                self._br_seq(self._letters(k1),
                                             self._letters(k2)))
        return out


class MatchedD:
    """Gerstenhaber bracket on keys (a-form word, tuple of class
    multi-indices), with the enveloping product of the complement."""

    def __init__(self, pbw_obj):
        sp = pbw_obj.sp
        if not is_matched(sp):
            raise ValueError("complement image is not bracket-closed")
        self.sp = sp
        self.P = pbw_obj
        self.m, self.r = sp.m, sp.r
        self.fa = a_form_algebra(sp.pair)
        self._act_images = b_action_images(sp)
        self._acts = [Derivation(self.fa, images, 0)
                      for images in self._act_images]

    def class_mul(self, P, Q):
        """Product of two class monomials inside the enveloping algebra
        of the complement (well defined because it is bracket-closed)."""
        return self.P.u_reduce(self.P.y_mono(P) + self.P.y_mono(Q))

    def act_on_forms(self, P, fw):
        """Action of the class monomial of P on an a-form word: the
        letters act right-to-left as derivations."""
        out = Vec({fw: Fraction(1)})
        for k in range(self.r - 1, -1, -1):
            for _ in range(P[k]):
                out = self._acts[k](out)
        return out

    def star(self, x, y):
        out = Vec()
        for (fw1, cls1), c1 in x.items():
            u = len(cls1) - 1
            for (fw2, cls2), c2 in y.items():
                v = len(cls2) - 1
                g2 = len(fw2[0])
                for k in range(u + 1):
                    sgn = -1 if (k * v + g2 * u + u * v) % 2 else 1
                    for legs, mult in multi_splits(cls1[k], v + 2):
                        acted = self.act_on_forms(legs[0], fw2)
                        if acted.is_zero():
                            continue
                        slot_vecs = [self.class_mul(legs[i + 1], cls2[i])
                                     for i in range(v + 1)]
                        for fw2b, ca in acted.items():
                            form = self.fa.mul(Vec({fw1: Fraction(1)}),
                                               Vec({fw2b: Fraction(1)}))
                            if form.is_zero():
                                continue
                            for combo in itertools.product(
                                    *[list(sv.items())
                                      for sv in slot_vecs]):
                                mid = tuple(K for K, _ in combo)
                                cc = Fraction(1)
                                for _, ci in combo:
                                    cc *= ci
                                slots = cls1[:k] + mid + cls1[k + 1:]
                                for fw3, cf in form.items():
                                    out.iadd_term(
                                        (fw3, slots),
                                        c1 * c2 * sgn * mult * ca * cc
                                        * cf)
        return out

    def gerst(self, x, y):
        out = self.star(x, y)
        for k1, c1 in x.items():
            n1 = small_sdeg(k1)
            for k2, c2 in y.items():
                n2 = small_sdeg(k2)
                s = -1 if (n1 * n2) % 2 else 1
                out -= s * self.star(Vec({k2: c2}), Vec({k1: c1}))
        return out
