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
from functools import cache

from .core import (
    Vec, falling, linear, mi_add, mi_fact, mi_sub, mi_upto, mi_weight,
    tensor_map,
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
        j2 = [sp1.adapted_coords(col) for col in sp2.adapted[self.m:]]
        self._frame_images = {}
        for s in range(self.m):
            img = Vec({alg.odd_word(0, s): Fraction(1)})
            for l, x in enumerate(j2):
                img.iadd_term(alg.odd_word(1, l), x[s])
            self._frame_images[(0, s)] = img
        # first-choice class labels rewritten in the second normal form
        self._to_second = relabel(D1.P, D2.P)
        # the per-key maps, each computed once per instance
        self.word_image = cache(self.word_image)
        self.conj_slot = cache(self.conj_slot)
        self._slot_factors = cache(self._slot_factors)

    # -- the power-series automorphism ----------------------------------------

    def map_scalar(self, x):
        """Frame change plus the dual automorphism on the power-series
        part; a chain map from the first scalar complex to the second."""
        return linear(self.word_image, x)

    def word_image(self, w):
        """map_scalar of one word: the product of the frame images of its
        odd letters (a letter with none maps to itself), times the dual
        automorphism's image of its power-series part."""
        alg = self.W2.alg
        out = alg.one()
        for g in alg.odd_seq(w):
            img = self._frame_images.get(g)
            out = alg.mul(out, img or Vec({alg.odd_word(*g): 1}))
        return alg.mul(out, Vec((alg.even_word(J), c)
                                for J, c in self.dual[w[-1]].items()))

    # -- slotwise conjugation ---------------------------------------------------

    def _operator_on(self, J, K):
        """Value of the conjugated slot operator on a power-series basis
        element, as a Vec over multi-indices."""
        return linear(self.dual.get, linear(
            lambda I: Vec({mi_sub(I, J): falling(I, J)}), self.dual_inv[K]))

    def conj_slot(self, J):
        """Normal form of the conjugated slot operator: a Vec over pairs
        (series multi-index, slot multi-index), solved triangularly in
        increasing argument weight."""
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
        return out

    def _slot_factors(self, J):
        """conj_slot(J) grouped by slot K, each series part written as a
        Vec over even words."""
        alg = self.W2.alg
        grouped = {}
        for (M, K), c in self.conj_slot(J).items():
            grouped.setdefault(K, Vec()).iadd_term(alg.even_word(M), c)
        return grouped

    def map_d(self, x):
        """The isomorphism on vertical operator elements: frame change
        and dual automorphism on the word, conjugation on every slot."""
        alg = self.W2.alg
        out = Vec()
        for (w, slots), c in x.items():
            # fold the slots one at a time, multiplying the series part
            # of each conjugated slot into the word
            result = [(self.word_image(w), ())]
            for J in slots:
                nxt = []
                for wordvec, done in result:
                    for K, series in self._slot_factors(J).items():
                        mult = alg.mul(wordvec, series)
                        if mult:
                            nxt.append((mult, done + (K,)))
                result = nxt
            for wordvec, done in result:
                for ww, cc in wordvec.items():
                    out.iadd_term((ww, done), c * cc)
        return out

    # -- the comparison statements ------------------------------------------------

    def small_relabel(self, x):
        """The two small complexes label the same enveloping-quotient
        classes through their own normal forms; rewrite first-choice
        labels in the second normal form (identity when the complements
        coincide).  The a-form part is shared and untouched."""
        return tensor_map(x, lambda fw: fw,
                          lambda K: self._to_second(Vec({K: 1})))

    def composition(self, pd1, pd2, x):
        """Second projection after the isomorphism after the first
        perturbed inclusion, on a small element."""
        return pd2.sigma(self.map_d(pd1.tau(x)))

    def scalar_chain_defect(self, x):
        return (self.map_scalar(self.W1.q_op(x))
                - self.W2.q_op(self.map_scalar(x)))

