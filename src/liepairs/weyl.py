"""Operators on the resolution algebra: forms on L with formal
power-series coefficients in the B-duals.

The algebra has odd generators alpha_s (duals of the A-part of the
adapted basis, colour 0) and chi_k-forms (duals of the j(B)-part,
colour 1), plus even generators chi_k tracking the symmetric part.
The four operators delta/h/sigma/tau contract this onto the forms on A,
and the flat structure is completed by solving for the vertical
correction term X so that Q = -delta + d + X squares to zero.

The homotopy h contracts one chi_k-form letter and raises chi_k by one,
normalised by the total weight.  Take a word w = alpha_S dchi_T chi^J
whose chi_k-form letters T = (k_0 < k_1 < ...) number v > 0 (any
further colours, such as the xi-letters of TPoly, sit between T and J
and are carried along).  Then

    h(c w) = sum_p (-1)^(|S| + p) c / (v + |J|)
                   alpha_S dchi_(T minus k_p) chi^(J + e_(k_p)),

so that h delta + delta h = id - tau sigma.  A word with v = 0 maps to
zero, and a word with |J| + 1 above the truncation weight is dropped
and flags the result as truncated.

Once X is solved, the flat part rho = d + X and the total differential
Q = -delta + rho are each one derivation: solve() merges the generator
images of d and of X into one rho table, and adds those of -delta to it
for a Q table, so that rho and q_op each cost a single Leibniz pass.
"""

from fractions import Fraction

from .core import EVEN, Vec, WordAlgebra, mi_unit, mi_weight, mi_zero


class Weyl:

    def __init__(self, splitting, conn, trunc=5):
        self.sp = splitting
        self.conn = conn
        self.N = trunc
        m, r, dim = splitting.m, splitting.r, splitting.pair.dim
        self.m, self.r, self.dim = m, r, dim
        self.alg = WordAlgebra((m, r), r, trunc)

        # delta: chi_k (even) -> chi_k-form, a derivation of degree +1
        self._delta_images = {
            (EVEN, k): Vec({self.alg.odd_word(1, k): Fraction(1)})
            for k in range(r)}

        # covariant differential: structure-constant part on the form
        # generators, dual-connection part on the even generators
        self._d_images = {}
        for w in range(dim):
            img = Vec()
            for u in range(dim):
                for v in range(u + 1, dim):
                    c = splitting.struct_const(u, v).get(w)
                    if c:
                        word = self.alg.mul_words(self._form_word(u),
                                                  self._form_word(v))
                        sign, ww = word
                        img.iadd_term(ww, -c * sign)
            if img:
                self._d_images[self._form_gen(w)] = img
        for k in range(r):
            img = Vec()
            for l in range(dim):
                for b in range(r):
                    g = conn.gamma[l][b][k]
                    if g == 0:
                        continue
                    word = self.alg.mul_words(
                        self._form_word(l),
                        self.alg.even_word(mi_unit(r, b)))
                    sign, ww = word
                    img.iadd_term(ww, -g * sign)
            if img:
                self._d_images[(EVEN, k)] = img

        # set by solve(): dict k -> Vec (coefficient of d_k), and the
        # derivation tables of rho and Q
        self.x_vert = None
        self._rho_images = self._q_images = None

    def _form_gen(self, l):
        return (0, l) if l < self.m else (1, l - self.m)

    def _form_word(self, l):
        return self.alg.odd_word(*self._form_gen(l))

    # -- basic operators -----------------------------------------------------

    def delta(self, x):
        return self.alg.derive(self._delta_images, 1, x)

    def d_l_nabla(self, x):
        return self.alg.derive(self._d_images, 1, x)

    def h(self, x):
        """The Koszul homotopy in closed form, see the module docstring."""
        out = Vec(truncated=x.truncated)
        for w, c in x.items():
            v = len(w[1])
            if v == 0:
                continue
            J = w[-1]
            wJ = mi_weight(J)
            if wJ + 1 > self.N:
                out.truncated = True
                continue
            f = Fraction(1, v + wJ) * c
            if len(w[0]) % 2:
                f = -f
            head, chis, mid = w[:1], w[1], w[2:-1]
            for p, k in enumerate(chis):
                out.iadd_term(
                    head + (chis[:p] + chis[p + 1:],) + mid
                    + (J[:k] + (J[k] + 1,) + J[k + 1:],),
                    -f if p % 2 else f)
        return out

    def sigma(self, x):
        out = Vec(truncated=x.truncated)
        for w, c in x.items():
            if not w[1] and mi_weight(w[-1]) == 0:
                out.iadd_term(w, c)
        return out

    # the inclusion of A-forms: in the adapted frame the pullback of an
    # A-dual generator is the corresponding form generator
    tau = sigma

    def project_a(self, x):
        """sigma followed by rewriting into bare A-form words."""
        return Vec((((w[0], ()), c) for w, c in self.sigma(x).items()),
                   truncated=x.truncated)

    def include_a(self, x):
        """Bare A-form words into this algebra."""
        zero = mi_zero(self.r)
        return Vec({(w[0], (), zero): c for w, c in x.items()},
                   truncated=x.truncated)

    # -- vertical derivations --------------------------------------------------

    def vertical(self, coeffs, x, parity=1):
        """Derivation sum_k coeffs[k] d_k acting through the even generators."""
        images = {(EVEN, k): c for k, c in coeffs.items() if c}
        return self.alg.derive(images, parity, x)

    def restrict_weight(self, x, wmax):
        return Vec(((w, c) for w, c in x.items()
                    if mi_weight(w[-1]) <= wmax), truncated=x.truncated)

    # -- the correction term and the total differential -------------------------

    def solve(self):
        """Weight-graded fixed point for the vertical one-form X with
        h(X) = 0 making (-delta + d + X)^2 = 0; converges because each
        pass determines one more symmetric weight."""
        r = self.r
        X = {k: Vec() for k in range(r)}
        for _ in range(self.N + 2):
            newX = {}
            for k in range(r):
                gen = Vec({self.alg.even_word(mi_unit(r, k)): Fraction(1)})
                dgen = self.d_l_nabla(gen)
                rhs = self.d_l_nabla(dgen)
                rhs += self.d_l_nabla(X[k])
                rhs += self.vertical(X, dgen)
                rhs += self.vertical(X, X[k])
                newX[k] = self.h(rhs)
            if all(newX[k] == X[k] for k in range(r)):
                self.x_vert = newX
                rho = dict(self._d_images)
                for k, xk in newX.items():
                    if xk:
                        rho[(EVEN, k)] = rho.get((EVEN, k), Vec()) + xk
                self.set_tables(rho)
                return newX
            X = newX
        raise RuntimeError("correction-term iteration failed to stabilize; "
                           "weight grading should force convergence")

    def set_tables(self, rho_images):
        """Take rho_images as the generator images of rho, and the same
        plus those of -delta as the images of Q."""
        self._rho_images = rho_images
        self._q_images = dict(rho_images)
        for g, img in self._delta_images.items():
            self._q_images[g] = self._q_images.get(g, Vec()) - img

    def rho(self, x):
        """The filtration-raising part of the total differential: d + X."""
        if self._rho_images is None:
            self.solve()
        return self.alg.derive(self._rho_images, 1, x)

    def q_op(self, x):
        """The total differential Q = -delta + rho."""
        if self._q_images is None:
            self.solve()
        return self.alg.derive(self._q_images, 1, x)

    def vertical_commutator(self):
        """The matrix c of the commutator of the flat differential with
        the vertical directions, [rho, d_k] = sum_l c[k][l] d_l."""
        r = self.r
        rho_chi = [self.rho(Vec({self.alg.even_word(mi_unit(r, l)):
                                 Fraction(1)})) for l in range(r)]
        return [[-1 * self.alg.dchi(k, rho_chi[l]) for l in range(r)]
                for k in range(r)]
