"""Vertical polyvector fields on the resolution algebra.

The word algebra gains a third odd colour xi_k dual to the even
generators: a word with p xi-letters is a p-vector field with form and
power-series coefficients.  Every operator of the scalar resolution
lifts canonically (the lift acts on xi_j through the commutator with
the vertical direction d_j), and the fibrewise Schouten bracket makes
the whole thing a differential graded Lie algebra.
"""

from fractions import Fraction

from .core import EVEN, Vec, WordAlgebra, mi_zero
from .weyl import Weyl


class TPoly:

    def __init__(self, splitting, conn, trunc=5):
        self.sp = splitting
        self.conn = conn
        self.N = trunc
        m, r = splitting.m, splitting.r
        self.m, self.r = m, r
        self.W = Weyl(splitting, conn, trunc)
        self.W.solve()
        # colours: 0 = alpha_s, 1 = chi_k-form, 2 = xi_k
        self.alg = WordAlgebra((m, r, r), r, trunc)

        self._delta_images = {g: self.embed(img)
                              for g, img in self.W._delta_images.items()}
        self._rho_images = {}
        for g, img in self.W._d_images.items():
            self._rho_images[g] = self.embed(img)
        for k in range(r):
            xk = self.W.x_vert[k]
            if xk:
                prev = self._rho_images.get((EVEN, k), Vec())
                self._rho_images[(EVEN, k)] = prev + self.embed(xk)
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
                self._rho_images[(2, j)] = img

    def embed(self, x):
        return Vec({(w[0], w[1], (), w[2]): c for w, c in x.items()},
                   truncated=x.truncated)

    # -- lifted contraction operators ------------------------------------------

    delta = Weyl.delta

    def rho(self, x):
        return self.alg.derive(self._rho_images, 1, x)

    # the homotopy, the projection and the weight cut act on the form and
    # symmetric letters only, so the scalar definitions serve unchanged
    q_op = Weyl.q_op
    h = Weyl.h
    sigma = tau = Weyl.sigma
    restrict_weight = Weyl.restrict_weight

    # -- the small complex: A-forms with polyvector coefficients -----------------

    def project_small(self, x):
        """Words with no chi content, rekeyed (A-form word, B-index tuple)."""
        return Vec(((((w[0], ()), w[2]), c)
                    for w, c in self.sigma(x).items()), truncated=x.truncated)

    def include_small(self, x):
        zero = mi_zero(self.r)
        return Vec({(w[0], (), xs, zero): c for (w, xs), c in x.items()},
                   truncated=x.truncated)

    # -- the fibrewise Schouten bracket ------------------------------------------

    def dxi(self, x, k):
        return self.alg.contract_odd(2, k, x)

    def deg(self, w):
        return self.alg.form_deg(w)

    def schouten(self, u, v):
        """Odd graded Lie bracket of vertical polyvectors; the pairing
        contracts one xi against one chi, and the signs make the degree
        shifted by one a Lie degree."""
        out = Vec(truncated=u.truncated or v.truncated)
        for wu, cu in u.items():
            nu = self.deg(wu)
            xu = Vec({wu: cu})
            for wv, cv in v.items():
                xv = Vec({wv: cv})
                s1 = -1 if nu % 2 == 0 else 1
                s2 = -1
                for k in range(self.r):
                    t1 = self.alg.mul(self.dxi(xu, k), self.alg.dchi(k, xv))
                    if t1:
                        out += s1 * t1
                    t2 = self.alg.mul(self.alg.dchi(k, xu), self.dxi(xv, k))
                    if t2:
                        out += s2 * t2
        return out
