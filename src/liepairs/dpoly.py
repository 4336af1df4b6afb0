"""Vertical polydifferential operators on the resolution algebra.

An element of arity v is keyed by a pair (word, slots): the word is a
coefficient in the scalar resolution algebra and slots is a tuple of
v+1 multi-indices, the t-th slot acting on the t-th argument as the
constant-coefficient operator d^(slots[t]).  All coefficients are kept
pushed into the word; composing a slot past a coefficient uses the
higher Leibniz rule.

The graded structure: the Hochschild-type operator built from the
comultiplication, the insertion product, the Gerstenhaber bracket, and
the lift of the flat structure differential acting on slots through the
commutator with the vertical directions.
"""

from fractions import Fraction

from .core import (
    Vec, falling, mi_add, mi_sub, mi_unit, mi_weight, mi_zero, sym_comul,
    tensor_product,
)
from .pbw import Pbw
from .weyl import Weyl


def multi_splits(J, parts):
    """All ways to write J as an ordered sum of `parts` multi-indices,
    with the multinomial coefficient J!/(M_0! ... )."""
    if parts == 1:
        return [((J,), 1)]
    out = []
    for K, M, c in sym_comul(J):
        for rest, c2 in multi_splits(M, parts - 1):
            out.append(((K,) + rest, c * c2))
    return out


class DPoly:

    def __init__(self, splitting, conn, trunc=5):
        self.sp = splitting
        self.conn = conn
        self.N = trunc
        m, r = splitting.m, splitting.r
        self.m, self.r = m, r
        self.W = Weyl(splitting, conn, trunc)
        self.W.solve()
        self.P = Pbw(splitting, conn, trunc)
        self.alg = self.W.alg
        self.c_vert = self.W.vertical_commutator()
        self._q_slot_cache = {}

    def deg(self, key):
        w, slots = key
        return self.alg.form_deg(w) + len(slots) - 1

    def mult_element(self):
        z = mi_zero(self.r)
        return Vec({(self.alg.unit_word(), (z, z)): Fraction(1)})

    # -- coefficients sliding past a slot ---------------------------------------

    def _slot_into(self, M, w2, K):
        """d^M composed with the coefficient-carrying slot (w2, d^K):
        Vec over (word, slot) pairs via the higher Leibniz rule."""
        out = []
        for Ptup, rest, cc in sym_comul(M):
            low = mi_sub(w2[-1], Ptup)
            if low is None:
                continue
            c = falling(w2[-1], Ptup)
            if c == 0:
                continue
            out.append((w2[:-1] + (low,), mi_add(rest, K), cc * c))
        return out

    # -- word-wise operators from the scalar resolution ---------------------------

    def _wordwise(self, op, x):
        out = Vec(truncated=x.truncated)
        for (w, slots), c in x.items():
            img = op(Vec({w: c}))
            out.truncated = out.truncated or img.truncated
            for w2, c2 in img.items():
                out.iadd_term((w2, slots), c2)
        return out

    def delta(self, x):
        return self._wordwise(self.W.delta, x)

    def h(self, x):
        return self._wordwise(self.W.h, x)

    def restrict_weight(self, x, wmax):
        return self._wordwise(lambda y: self.W.restrict_weight(y, wmax), x)

    # -- the lifted flat differential ---------------------------------------------

    def _q_slot(self, J):
        """Action of the flat differential on a slot monomial inside the
        enveloping algebra: coefficients produced by the commutator are
        commuted to the front past the remaining letters, which costs
        higher Leibniz terms.  Returns a Vec over (word, slot) pairs."""
        if J in self._q_slot_cache:
            return self._q_slot_cache[J]
        out = Vec()
        k0 = next((k for k, e in enumerate(J) if e), None)
        if k0 is not None:
            Jm = mi_sub(J, mi_unit(self.r, k0))
            for l in range(self.r):
                cv = self.c_vert[k0][l]
                for w, c in cv.items():
                    out.iadd_term((w, mi_add(Jm, mi_unit(self.r, l))), c)
            for (w, M), c in self._q_slot(Jm).items():
                dw = self.alg.dchi(k0, Vec({w: c}))
                for w2, c2 in dw.items():
                    out.iadd_term((w2, M), c2)
                out.iadd_term((w, mi_add(M, mi_unit(self.r, k0))), c)
        self._q_slot_cache[J] = out
        return out

    def rho(self, x):
        out = self._wordwise(self.W.rho, x)
        for (w, slots), c in x.items():
            base = -1 if self.alg.form_deg(w) % 2 else 1
            for t, J in enumerate(slots):
                for (cw, newJ), c2 in self._q_slot(J).items():
                    prod = self.alg.mul_words(w, cw)
                    if prod is None:
                        continue
                    if prod == 'overflow':
                        out.truncated = True
                        continue
                    sign, w3 = prod
                    out.iadd_term((w3, slots[:t] + (newJ,) + slots[t + 1:]),
                                  c * base * c2 * sign)
        return out

    def q_op(self, x):
        """-delta + rho: rho also acts on the slots, so Q is not one
        derivation of the word algebra here."""
        return -1 * self.delta(x) + self.rho(x)

    # -- the Hochschild-type operator ----------------------------------------------

    def d_h(self, x):
        """Insertion coboundary on the slots, with the alternating sign
        of the coefficient form degree in front."""
        zero = mi_zero(self.r)
        out = Vec(truncated=x.truncated)
        for (w, slots), c in x.items():
            pref = -1 if self.alg.form_deg(w) % 2 else 1
            k = len(slots)
            out.iadd_term((w, (zero,) + slots), c * pref)
            for i in range(1, k + 1):
                s = -pref if i % 2 else pref
                for K, M, mult in sym_comul(slots[i - 1]):
                    out.iadd_term(
                        (w, slots[:i - 1] + (K, M) + slots[i:]),
                        c * s * mult)
            s = -pref if (k + 1) % 2 else pref
            out.iadd_term((w, slots + (zero,)), c * s)
        return out

    # -- insertion product and Gerstenhaber bracket ----------------------------------

    def star(self, x, y):
        out = Vec(truncated=x.truncated or y.truncated)
        for (w1, S1), c1 in x.items():
            u = len(S1) - 1
            for (w2, S2), c2 in y.items():
                v = len(S2) - 1
                g2 = self.alg.form_deg(w2)
                for k in range(u + 1):
                    sgn = -1 if (k * v + g2 * u + u * v) % 2 else 1
                    for parts, mult in multi_splits(S1[k], v + 1):
                        for w2b, J0, c0 in self._slot_into(parts[0], w2,
                                                           S2[0]):
                            prod = self.alg.mul_words(w1, w2b)
                            if prod is None:
                                continue
                            if prod == 'overflow':
                                out.truncated = True
                                continue
                            sign, w3 = prod
                            mid = (J0,) + tuple(
                                mi_add(parts[i], S2[i])
                                for i in range(1, v + 1))
                            out.iadd_term(
                                (w3, S1[:k] + mid + S1[k + 1:]),
                                c1 * c2 * c0 * mult * sign * sgn)
        return out

    def gerst(self, x, y):
        out = self.star(x, y)
        for (w1, S1), c1 in x.items():
            n1 = self.deg((w1, S1))
            for (w2, S2), c2 in y.items():
                n2 = self.deg((w2, S2))
                s = -1 if (n1 * n2) % 2 else 1
                out -= s * self.star(Vec({(w2, S2): c2}),
                                     Vec({(w1, S1): c1}))
        return out

    # -- projection to the small complex -----------------------------------------------

    def project_small(self, x):
        """Coefficient words with no chi content survive; each slot is
        symmetrized into a class of the enveloping-algebra quotient."""
        out = Vec(truncated=x.truncated)
        for (w, slots), c in x.items():
            if w[1] or mi_weight(w[-1]) != 0:
                continue
            acc = tensor_product(c, [self.P.pbw(Vec({J: Fraction(1)}))
                                     for J in slots])
            for cls, cc in acc.items():
                out.iadd_term(((w[0], ()), cls), cc)
        return out

    def include_small(self, x):
        zero = mi_zero(self.r)
        out = Vec(truncated=x.truncated)
        for (fw, cls), c in x.items():
            acc = tensor_product(c, [self.P.pbw_inv(Vec({K: Fraction(1)}))
                                     for K in cls])
            for slots, cc in acc.items():
                out.iadd_term(((fw[0], (), zero), slots), cc)
        return out

    # on small keys the coefficient is an A-form word and the slots are
    # classes, whose comultiplication is the same shuffle count
    dh_small = d_h
