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

from functools import cache

from .core import (
    Vec, falling, mi_add, mi_sub, mi_unit, mi_weight, mi_zero, multi_splits,
    on_first, susp_sign, sym_comul, tensor_map,
)
from .pbw import Pbw


class DPoly:

    def __init__(self, W):
        """The operators over the resolution of the Weyl W."""
        self.W = W
        self.sp, self.conn, self.N = W.sp, W.conn, W.N
        self.m, self.r = W.m, W.r
        self.P = Pbw(W.sp, W.conn, W.N)
        self.alg = W.alg
        self.c_vert = W.vertical_commutator()
        # the per-argument tables, each built once per instance
        self._q_slot = cache(self._q_slot)
        self._slides = cache(self._slides)

    def deg(self, key):
        w, slots = key
        return self.alg.form_deg(w) + len(slots) - 1

    # -- coefficients sliding past a slot ---------------------------------------

    def _slot_into(self, M, w2, K):
        """d^M composed with the coefficient-carrying slot (w2, d^K):
        Vec over (word, slot) pairs via the higher Leibniz rule."""
        out = []
        for Ptup, rest, cc in sym_comul(M):
            low = mi_sub(w2[-1], Ptup)
            if low is None:
                continue
            out.append((w2[:-1] + (low,), mi_add(rest, K),
                        cc * falling(w2[-1], Ptup)))
        return out

    # -- word-wise operators from the scalar resolution ---------------------------

    def d_big(self, x, max_weight=None):
        cap = self.alg.out_cap(max_weight)
        return on_first(lambda y: self.W.d_big(y, cap), x)

    def h(self, x, max_weight=None):
        cap = self.alg.out_cap(max_weight)
        return on_first(lambda y: self.W.h(y, cap), x)

    def restrict_weight(self, x, wmax):
        return on_first(lambda y: self.W.restrict_weight(y, wmax), x)

    # -- the lifted flat differential ---------------------------------------------

    def _q_slot(self, J):
        """Action of the flat differential on a slot monomial inside the
        enveloping algebra: coefficients produced by the commutator are
        commuted to the front past the remaining letters, which costs
        higher Leibniz terms.  Returns a Vec over (word, slot) pairs,
        shared: callers must not mutate it."""
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
        return out

    def rho(self, x, max_weight=None):
        """The flat differential on the coefficient word, and through the
        commutator on each slot, keeping the words of weight at most
        max_weight (default: the cap)."""
        cap = self.alg.out_cap(max_weight)
        out = on_first(lambda y: self.W.rho(y, cap), x)
        for (w, slots), c in x.items():
            room = cap - mi_weight(w[-1])
            if room < 0:
                continue
            base = -1 if self.alg.form_deg(w) % 2 else 1
            for t, J in enumerate(slots):
                for (cw, newJ), c2 in self._q_slot(J).items():
                    if mi_weight(cw[-1]) > room:
                        continue
                    prod = self.alg.mul_words(w, cw)
                    if prod is None:
                        continue
                    sign, w3 = prod
                    out.iadd_term((w3, slots[:t] + (newJ,) + slots[t + 1:]),
                                  c * base * c2 * sign)
        return out

    def q_op(self, x):
        """-delta + rho: rho also acts on the slots, so Q is not one
        derivation of the word algebra here."""
        return self.d_big(x) + self.rho(x)

    # -- the Hochschild-type operator ----------------------------------------------

    def d_h(self, x, max_weight=None):
        """Insertion coboundary on the slots, with the alternating sign
        of the coefficient form degree in front.  It serves the small
        complex too: there the coefficient is an A-form word and the
        slots are classes, whose comultiplication is the same shuffle
        count.  It leaves the coefficient word alone, so a word over
        max_weight (default: the cap) is skipped."""
        cap = self.alg.out_cap(max_weight)
        zero = mi_zero(self.r)
        out = Vec()
        for (w, slots), c in x.items():
            if mi_weight(w[-1]) > cap:
                continue
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

    def perturbation(self, x, max_weight=None):
        """rho plus the insertion coboundary: what perturbs the
        contraction of this side."""
        return self.rho(x, max_weight) + self.d_h(x, max_weight)

    # -- insertion product and Gerstenhaber bracket ----------------------------------

    def _slides(self, J, w2, S2):
        """The ways the slot d^J of the outer operator absorbs the inner
        argument term (w2, S2): d^J splits over the len(S2) slots of the
        argument, and its first part slides past the coefficient w2.  An
        argument with no slot is a coefficient: the whole of d^J acts on
        w2 and no middle slot is left.  A list of (coefficient word,
        middle slots, int coefficient, weight of the coefficient word),
        built once per (J, w2, S2) and shared: callers must not mutate
        it."""
        if not S2:
            c = falling(w2[-1], J)
            out = [(w2[:-1] + (mi_sub(w2[-1], J),), (), c)] if c else []
        else:
            out = [
                (w2b, (J0,) + tuple(map(mi_add, parts[1:], S2[1:])),
                 c0 * mult)
                for parts, mult in multi_splits(J, len(S2))
                for w2b, J0, c0 in self._slot_into(parts[0], w2, S2[0])]
        return [(w2b, mid, c, mi_weight(w2b[-1])) for w2b, mid, c in out]

    def star(self, x, y, max_weight=None):
        """The insertion product, keeping the words of weight at most
        max_weight (default: the cap): a slid coefficient word whose
        weight and that of x's word add up past it is skipped before the
        product is formed."""
        cap = self.alg.out_cap(max_weight)
        out = Vec()
        for (w1, S1), c1 in x.items():
            u = len(S1) - 1
            room = cap - mi_weight(w1[-1])
            for (w2, S2), c2 in y.items():
                v = len(S2) - 1
                g2 = self.alg.form_deg(w2)
                c12 = c1 * c2
                for k in range(u + 1):
                    sgn = -1 if (k * v + g2 * u + u * v) % 2 else 1
                    head, tail = S1[:k], S1[k + 1:]
                    for w2b, mid, c, wt in self._slides(S1[k], w2, S2):
                        if wt > room:
                            continue
                        prod = self.alg.mul_words(w1, w2b)
                        if prod is None:
                            continue
                        sign, w3 = prod
                        out.iadd_term((w3, head + mid + tail),
                                      c12 * (c * sign * sgn))
        return out

    def gerst(self, x, y, max_weight=None):
        """The Gerstenhaber bracket pulled through the suspension, which
        transfer.py takes: the bracket of x' = (-1)^|x| x and y, where
        [x, y] = star(x, y) - (-1)^(|x| |y|) star(y, x).  The sign depends
        only on the degree parities, so with y = y_0 + y_1 split by parity,
        and as x'_0 = x_0 and x'_1 = -x_1, it is star(x', y) - star(y_0, x')
        - star(y_1, x): at most three calls of star, each keeping the
        words of weight at most max_weight (default: the cap)."""
        y0, y1 = self._by_parity(y)
        xs = susp_sign(x, self.deg)
        out = self.star(xs, y, max_weight)
        if y0:
            out -= self.star(y0, xs, max_weight)
        if y1:
            out -= self.star(y1, x, max_weight)
        return out

    def _by_parity(self, x):
        """The even-degree and the odd-degree part of x."""
        parts = (Vec(), Vec())
        for key, c in x.items():
            parts[self.deg(key) % 2][key] = c
        return parts

    # -- projection to the small complex -----------------------------------------------

    def project_small(self, x):
        """Coefficient words with no chi content survive; each slot is
        symmetrized into a class of the enveloping-algebra quotient."""
        return tensor_map(
            x, lambda w: None if w[1] or mi_weight(w[-1]) else (w[0], ()),
            self.P.table.__getitem__)

    def include_small(self, x):
        zero = mi_zero(self.r)
        return tensor_map(x, lambda fw: (fw[0], (), zero),
                          self.P.inv_table.__getitem__)
