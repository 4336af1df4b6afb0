"""Comparison of the pipelines attached to two admissible choices.

Two choices of complement and compatible connection give two flat
structures on the same underlying spaces.  The two normal-form maps
into the enveloping quotient differ by an automorphism of the
polynomial coalgebra; its dual acts on power series, by conjugation on
vertical operators (slotwise, since it is an algebra automorphism), and
together with the change of dual frames it intertwines the two big
differentials.  Composing the first perturbed inclusion, this
isomorphism, and the second projection gives the identity on the small
complex: the two transferred structures agree up to an isomorphism with
identity linear part.
"""

from fractions import Fraction

from .core import (
    Vec, falling, linear, mat_vec, mi_add, mi_fact, mi_sub, mi_upto,
    mi_weight, mi_zero, tensor_product,
)
from .pbw import dual_map, relabel, transition


class Uniqueness:

    def __init__(self, D1, D2):
        """The comparison of two DPolys of the same pair and truncation,
        built over the two choices."""
        self.D1, self.D2 = D1, D2
        self.W1, self.W2 = D1.W, D2.W
        sp1, sp2 = self.sp1, self.sp2 = D1.sp, D2.sp
        trunc = self.N = D1.N
        self.r = sp1.r
        self.m = sp1.m
        # dual of the coalgebra automorphism between the two normal forms
        self.dual = dual_map(transition(self.D1.P, self.D2.P),
                             self.r, trunc)
        self.dual_inv = dual_map(transition(self.D2.P, self.D1.P),
                                 self.r, trunc)
        # first dual frame written in the second one: the a-form letters
        # pick up components along the chi-form letters
        alg = self.W2.alg
        self._frame_images = {}
        for s in range(self.m):
            img = Vec({alg.odd_word(0, s): Fraction(1)})
            for l in range(self.r):
                c = mat_vec(sp1._to_adapted,
                            sp2.adapted[self.m + l])[s]
                if c:
                    img.iadd_term(alg.odd_word(1, l), c)
            self._frame_images[(0, s)] = img
        self._conj_cache = {}

    # -- the power-series automorphism ----------------------------------------

    def map_scalar(self, x):
        """Frame change plus the dual automorphism on the power-series
        part; a chain map from the first scalar complex to the second."""
        alg = self.W2.alg
        out = Vec()
        for w, c in x.items():
            base = alg.substitute(
                self._frame_images,
                Vec({w[:-1] + (mi_zero(self.r),): c}))
            series = self.dual[w[-1]]
            out += alg.mul(base, Vec(
                (alg.even_word(J), cj) for J, cj in series.items()))
        return out

    # -- slotwise conjugation ---------------------------------------------------

    def _operator_on(self, J, K):
        """Value of the conjugated slot operator on a power-series basis
        element, as a Vec over multi-indices."""
        f = self.dual_inv[K]
        df = Vec()
        for I, c in f.items():
            low = mi_sub(I, J)
            if low is None:
                continue
            df.iadd_term(low, c * falling(I, J))
        return linear(self.dual.get, df)

    def conj_slot(self, J):
        """Normal form of the conjugated slot operator: a Vec over pairs
        (series multi-index, slot multi-index), solved triangularly in
        increasing argument weight."""
        if J in self._conj_cache:
            return self._conj_cache[J]
        solved = {}
        for K in sorted(mi_upto(self.r, self.N), key=mi_weight):
            residual = dict(self._operator_on(J, K).items())
            for Kp, g in solved.items():
                if mi_sub(K, Kp) is None or Kp == K:
                    continue
                shift = mi_sub(K, Kp)
                f = falling(K, Kp)
                for M, c in g.items():
                    tot = mi_add(M, shift)
                    residual[tot] = residual.get(tot, Fraction(0)) - c * f
            kf = mi_fact(K)
            solved[K] = {M: Fraction(c, kf) for M, c in residual.items()
                         if c}
        out = Vec()
        for K, g in solved.items():
            for M, c in g.items():
                out.iadd_term((M, K), c)
        self._conj_cache[J] = out
        return out

    def map_d(self, x):
        """The isomorphism on vertical operator elements: frame change
        and dual automorphism on the word, conjugation on every slot."""
        alg = self.W2.alg
        out = Vec()
        for (w, slots), c in x.items():
            word = self.map_scalar(Vec({w: c}))
            # fold the slots one at a time, multiplying the series part
            # of each conjugated slot into the word
            result = [(word, ())]
            for J in slots:
                table = self.conj_slot(J)
                nxt = []
                for wordvec, done in result:
                    grouped = {}
                    for (M, K), cc in table.items():
                        grouped.setdefault(K, Vec()).iadd_term(M, cc)
                    for K, series in grouped.items():
                        mult = alg.mul(wordvec, Vec(
                            (alg.even_word(M), cm)
                            for M, cm in series.items()))
                        if not mult:
                            continue
                        nxt.append((mult, done + (K,)))
                result = nxt
            for wordvec, done in result:
                for ww, cc in wordvec.items():
                    out.iadd_term((ww, done), cc)
        return out

    # -- the comparison statements ------------------------------------------------

    def small_relabel(self, x):
        """The two small complexes label the same enveloping-quotient
        classes through their own normal forms; rewrite first-choice
        labels in the second normal form (identity when the complements
        coincide).  The a-form part is shared and untouched."""
        to_second = relabel(self.D1.P, self.D2.P)
        out = Vec()
        for (fw, cls), c in x.items():
            acc = tensor_product(c, [to_second(Vec({K: Fraction(1)}))
                                     for K in cls])
            for cls2, cc in acc.items():
                out.iadd_term((fw, cls2), cc)
        return out

    def composition(self, pd1, pd2, x):
        """Second projection after the isomorphism after the first
        perturbed inclusion, on a small element."""
        return pd2.sigma(self.map_d(pd1.tau(x)))

    def scalar_chain_defect(self, x):
        return (self.map_scalar(self.W1.q_op(x))
                - self.W2.q_op(self.map_scalar(x)))

