"""Operators on the resolution algebra: forms on L with formal
power-series coefficients in the B-duals.

The algebra has odd generators alpha_s (duals of the A-part of the
adapted basis, colour 0) and chi_k-forms (duals of the j(B)-part,
colour 1), plus even generators chi_k tracking the symmetric part.
The four operators delta/h/sigma/tau contract this onto the forms on A,
and the flat structure is completed by solving for the vertical
correction term X so that Q = -delta + d + X squares to zero.

The differential delta is the odd derivation given by its images on
the generators, chi_k -> dchi_k (koszul_delta, on any word algebra whose
colour 1 is the chi_k-forms).  The code applies d_big = -delta,
the big differential of the contraction (contraction.py) and the
-delta part of Q: a core.Derivation of the negated images, compiled
once.  It lowers the weight by exactly one.

The homotopy h is Fedosov's delta^-1.  kappa is the odd derivation
with images dchi_k -> chi_k (koszul_kappa, on the same word algebras
as koszul_delta), compiled once.  delta kappa + kappa delta is the even
derivation that fixes every chi_k and chi_k-form letter and kills the
other letters, so on a word w = alpha_S dchi_T ... chi^J with v = |T|
it is the Euler operator

    delta kappa + kappa delta = (v + |J|) id,

and h = kappa / (v + |J|) gives h delta + delta h = id - tau sigma.
kappa moves one letter from T to J, so every input word that reaches an
output word has the same v + |J|: the output's number of chi_k-form
letters plus its weight.  h applies kappa and divides each output
coefficient once by that weight; it is not a derivation.  h raises the
weight by exactly one and takes kappa's output cap max_weight (default:
the truncation weight): a capped call gives the words of the uncapped
one up to the cap, with the same coefficients in the same order.

The correction X = sum_k X_k d_k is the fixed point of the Fedosov step

    X_k = h(rho_X(rho_X(chi_k))),   rho_X = d + X,

iterated from X = 0.  rho_X is one derivation: its table holds the
images of d, with X_k added to the image of chi_k, and Q = -delta +
rho_X adds the images of -delta to it.  Each pass compiles the rho_X
table into a core.Derivation (set_rho) and applies it; Q is compiled
once, from the fixed point's table (set_q).  A Weyl is solved when it
is built, so that rho and q_op each apply a compiled Leibniz pass.
"""

from fractions import Fraction
from functools import lru_cache

from .core import (
    EVEN, Derivation, Vec, WordAlgebra, mi_unit, mi_weight,
)


class Weyl:

    def __init__(self, splitting, conn, trunc=5):
        self.sp = splitting
        self.conn = conn
        self.N = trunc
        m, r, dim = splitting.m, splitting.r, splitting.pair.dim
        self.m, self.r, self.dim = m, r, dim
        self.alg = WordAlgebra((m, r), r, trunc)

        # delta, a derivation of degree +1, with d_big = -delta and kappa
        # compiled; set_q() adds the images of -delta to the Q table
        self._delta_images, self._d_big = koszul_delta(self.alg)
        self._kappa = koszul_kappa(self.alg)

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

        # set by solve(), run here: dict k -> Vec (coefficient of d_k),
        # and the derivation tables of rho and Q with their compiled
        # derivations
        self.x_vert = None
        self.solve()

    def _form_gen(self, l):
        return (0, l) if l < self.m else (1, l - self.m)

    def _form_word(self, l):
        return self.alg.odd_word(*self._form_gen(l))

    # -- basic operators -----------------------------------------------------

    def d_big(self, x, max_weight=None):
        """-delta, the big differential of the contraction, keeping the
        words of weight at most max_weight (default: the cap)."""
        return self._d_big(x, max_weight)

    def h(self, x, max_weight=None):
        """The Koszul homotopy kappa / (v + |J|) (see the module
        docstring), keeping the words of weight at most max_weight
        (default: the cap)."""
        out = self._kappa(x, max_weight)
        for w, c in out.items():
            out[w] = _quotient(c, len(w[1]) + sum(w[-1]))
        return out

    def sigma(self, x):
        out = Vec()
        for w, c in x.items():
            if not w[1] and mi_weight(w[-1]) == 0:
                out.iadd_term(w, c)
        return out

    # the inclusion of A-forms: in the adapted frame the pullback of an
    # A-dual generator is the corresponding form generator
    tau = sigma

    def restrict_weight(self, x, wmax):
        return Vec((w, c) for w, c in x.items()
                   if mi_weight(w[-1]) <= wmax)

    # -- the correction term and the total differential -------------------------

    def solve(self):
        """The vertical one-form X with h(X) = 0 making (-delta + d + X)^2
        = 0: the fixed point of X_k = h(rho_X(rho_X(chi_k))) with rho_X =
        d + X, iterated from X = 0.  It converges because each pass
        determines one more symmetric weight.  Solved once, when the Weyl
        is built: a later call returns the stored X."""
        if self.x_vert is not None:
            return self.x_vert
        r = self.r
        chis = [Vec({self.alg.even_word(mi_unit(r, k)): Fraction(1)})
                for k in range(r)]
        X = {k: Vec() for k in range(r)}
        for _ in range(self.N + 2):
            rho = dict(self._d_images)
            for k, xk in X.items():
                if xk:
                    rho[(EVEN, k)] = rho.get((EVEN, k), Vec()) + xk
            self.set_rho(rho)
            step = self._rho
            newX = {k: self.h(step(step(chi))) for k, chi in enumerate(chis)}
            if newX == X:
                self.set_q()
                self.x_vert = X
                return X
            X = newX
        raise RuntimeError("correction-term iteration failed to stabilize; "
                           "weight grading should force convergence")

    def set_rho(self, rho_images):
        """Take rho_images as the generator images of rho and compile
        them.  Raises ValueError if an image term has lower chi-weight
        than its generator: rho must not lower the weight, or sigma rho h
        = 0 fails and the one-pass perturbed small differential of
        contraction.py is wrong.  An odd letter has weight 0, so only the
        even letters (weight 1) can fail."""
        for g, img in rho_images.items():
            if g[0] == EVEN and any(mi_weight(w[-1]) < 1 for w in img):
                raise ValueError("rho image of generator %r lowers the "
                                 "weight" % (g,))
        self._rho_images = rho_images
        self._rho = Derivation(self.alg, rho_images, 1)

    def set_q(self):
        """Compile Q = -delta + rho: the images of rho's table plus those
        of -delta."""
        self._q_images = dict(self._rho_images)
        for g, img in self._delta_images.items():
            self._q_images[g] = self._q_images.get(g, Vec()) - img
        self._q = Derivation(self.alg, self._q_images, 1)

    def rho(self, x, max_weight=None):
        """The filtration-raising part of the total differential: d + X,
        keeping the words of weight at most max_weight (default: the
        cap)."""
        return self._rho(x, max_weight)

    def q_op(self, x, max_weight=None):
        """The total differential Q = -delta + rho, keeping the words of
        even weight at most max_weight (default: the cap): the same
        words, coefficients and order as restrict_weight(q_op(x),
        max_weight), without forming the terms over it."""
        return self._q(x, max_weight)

    def vertical_commutator(self):
        """The matrix c of the commutator of the flat differential with
        the vertical directions, [rho, d_k] = sum_l c[k][l] d_l."""
        r = self.r
        rho_chi = [self.rho(Vec({self.alg.even_word(mi_unit(r, l)):
                                 Fraction(1)})) for l in range(r)]
        return [[-self.alg.dchi(k, rho_chi[l]) for l in range(r)]
                for k in range(r)]


def koszul_delta(alg):
    """The images of delta, chi_k -> dchi_k, on a word algebra alg whose
    colour 1 is the chi_k-forms, and d_big = -delta: the Derivation of
    their negations."""
    images = {(EVEN, k): Vec({alg.odd_word(1, k): 1})
              for k in range(alg.n_even)}
    return images, Derivation(alg, {g: -img for g, img in images.items()},
                              1)


def koszul_kappa(alg):
    """kappa, the odd derivation dchi_k -> chi_k, compiled on a word
    algebra alg whose colour 1 is the chi_k-forms."""
    r = alg.n_even
    return Derivation(alg, {(1, k): Vec({alg.even_word(mi_unit(r, k)): 1})
                            for k in range(r)}, 1)


@lru_cache(maxsize=4096)
def _quotient(num, den):
    """num / den, for an int or Fraction num and an int den: an int when
    exact, else a Fraction; the few quotients the homotopy meets are
    built once each."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q
