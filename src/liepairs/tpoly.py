"""Vertical polyvector fields on the resolution algebra.

The word algebra gains a third odd colour xi_k dual to the even
generators: a word with p xi-letters is a p-vector field with form and
power-series coefficients.  Every operator of the scalar resolution
lifts canonically (the lift acts on xi_j through the commutator with
the vertical direction d_j), and the fibrewise Schouten bracket makes
the whole thing a differential graded Lie algebra.
"""

from fractions import Fraction

from .core import Vec, WordAlgebra, mi_zero, susp_sign
from .weyl import Weyl, koszul_delta, koszul_kappa


class TPoly:

    def __init__(self, W):
        """The polyvectors over the resolution of the Weyl W."""
        self.W = W
        self.sp, self.conn, self.N = W.sp, W.conn, W.N
        m, r = self.m, self.r = W.m, W.r
        # colours: 0 = alpha_s, 1 = chi_k-form, 2 = xi_k
        self.alg = WordAlgebra((m, r, r), r, W.N)

        self._delta_images, self._d_big = koszul_delta(self.alg)
        self._kappa = koszul_kappa(self.alg)
        rho = {g: self.embed(img) for g, img in self.W._rho_images.items()}
        # commutator action on the vertical directions:
        # xi_j -> sum_k c[j][k] xi_k
        c_vert = self.W.vertical_commutator()
        for j in range(r):
            img = Vec()
            for k in range(r):
                if c_vert[j][k]:
                    img += self.alg.mul(
                        self.embed(c_vert[j][k]),
                        Vec({self.alg.odd_word(2, k): Fraction(1)}))
            if img:
                rho[(2, j)] = img
        self.set_rho(rho)
        self.set_q()

    def embed(self, x):
        return Vec({(w[0], w[1], (), w[2]): c for w, c in x.items()})

    # -- lifted contraction operators ------------------------------------------

    # d_big, h (through kappa), rho and Q apply this side's own compiled
    # derivations, and the projection and the weight cut read only the
    # form and symmetric letters, so the scalar definitions serve
    # unchanged; rho alone perturbs the contraction of this side
    d_big = Weyl.d_big
    set_rho = Weyl.set_rho
    set_q = Weyl.set_q
    rho = perturbation = Weyl.rho
    q_op = Weyl.q_op
    h = Weyl.h
    sigma = tau = Weyl.sigma
    restrict_weight = Weyl.restrict_weight

    # -- the small complex: A-forms with polyvector coefficients -----------------

    def project_small(self, x):
        """Words with no chi content, rekeyed (A-form word, B-index tuple)."""
        out = Vec()
        for w, c in self.sigma(x).items():
            out[(w[0], ()), w[2]] = c
        return out

    def include_small(self, x):
        zero = mi_zero(self.r)
        out = Vec()
        for (w, xs), c in x.items():
            out[w[0], (), xs, zero] = c
        return out

    # -- the fibrewise Schouten bracket ------------------------------------------

    def dxi(self, x, k, max_weight=None):
        return self.alg.contract_odd(2, k, x, max_weight)

    def deg(self, w):
        return self.alg.form_deg(w)

    def schouten(self, u, v, max_weight=None):
        """Odd graded Lie bracket of vertical polyvectors, pulled through
        the suspension: (-1)^(|u| - 1) [u, v], the bracket that transfer.py
        takes.  The pairing contracts one xi against one chi, and the
        signs make the degree shifted by one a Lie degree.  It is
        bilinear, so each contraction is taken once per argument:

            (-1)^(|u| - 1) [u, v] = sum_k iota_k(u) d_k v - d_k u' iota_k v,

        where u' is u with its even-degree terms negated.  It keeps the
        words of weight at most max_weight (default: the cap): weights
        add in a product and are never negative, so each factor is
        capped there too."""
        alg, mw = self.alg, max_weight
        u_signed = susp_sign(u, lambda w: self.deg(w) - 1)
        out = Vec()
        for k in range(self.r):
            out += alg.mul(self.dxi(u, k, mw), alg.dchi(k, v, mw), mw)
            out -= alg.mul(alg.dchi(k, u_signed, mw), self.dxi(v, k, mw),
                           mw)
        return out
