"""Contractions and homological perturbation.

A contraction packages a projection sigma, an inclusion tau, a homotopy
h and the two differentials, with sigma tau = id and

    d_big h + h d_big = tau sigma - id,

the convention of Crainic's perturbation lemma (arXiv:math/0403266).
Perturbing d_big by a filtration-raising operator rho yields new data by
the usual geometric series, which in this convention carries no sign:

    tau' = sum_k (h rho)^k tau,   h' = sum_k (h rho)^k h,
    d_small' = d_small + sigma rho tau'.

The series terminates here because the homotopy raises the power-series
weight by one at every pass.  tau' and d_small' are linear, so each is
kept once per small basis key and extended by linearity.

d_small' needs no series at all: sigma rho h = 0, so every term of
tau' after the first drops out and d_small' = d_small + sigma rho tau.
On both sides of the resolution the weight is the total degree in the
even generators chi (mi_weight of a word's last part), and

  * h raises it by exactly one (Weyl.h);
  * rho never lowers it: on words it is a derivation whose generator
    images have weight at least that of their generator (1 for an even
    letter, 0 for an odd one), which Weyl.set_tables checks when the
    table is set and raises otherwise; DPoly's slot part multiplies the
    coefficient word by further words, and the insertion coboundary
    d_h leaves the word alone;
  * sigma keeps weight 0 only.

So sigma rho of each term (h rho)^k tau with k >= 1 is zero word by
word, before any cancellation, so no term the cap drops can change
it: rho tau' is applied once, to tau alone.
"""

from functools import cache

from .core import Vec, linear


class Contraction:

    def __init__(self, sigma, tau, h, d_big, d_small, kmax):
        self.sigma = sigma
        self.tau = tau
        self.h = h
        self.d_big = d_big
        self.d_small = d_small
        self.kmax = kmax

    def perturb(self, rho):
        """New contraction for the perturbed differential d_big + rho."""
        kmax, h = self.kmax, self.h

        def series(first):
            """sum_k (h rho)^k first.  Raises if the terms have not died
            out after kmax passes."""
            acc = term = first
            for _ in range(kmax):
                term = h(rho(term))
                if term.is_zero():
                    return acc
                acc = acc + term
            raise RuntimeError("perturbation series did not terminate "
                               "within %d passes" % kmax)

        @cache
        def tau_key(key):
            return series(self.tau(Vec({key: 1})))

        def tau_new(x):
            return linear(tau_key, x)

        @cache
        def d_small_key(key):
            x = Vec({key: 1})
            return self.d_small(x) + self.sigma(rho(self.tau(x)))

        def d_small_new(x):
            return linear(d_small_key, x)

        def h_new(x):
            return series(h(x))

        def d_big_new(x):
            return self.d_big(x) + rho(x)

        return Contraction(self.sigma, tau_new, h_new, d_big_new,
                           d_small_new, kmax)

    # -- identity checks, each returning the defect --------------------------

    def defect_projection(self, x):
        """sigma tau - id on a small element."""
        return self.sigma(self.tau(x)) - x

    def defect_homotopy(self, x):
        """h d + d h + id - tau sigma on a big element."""
        out = self.h(self.d_big(x)) + self.d_big(self.h(x))
        out += x
        out -= self.tau(self.sigma(x))
        return out

    def defect_side_sh(self, x):
        return self.sigma(self.h(x))

    def defect_chain_sigma(self, x):
        """sigma d_big - d_small sigma on a big element."""
        return self.sigma(self.d_big(x)) - self.d_small(self.sigma(x))

    def defect_chain_tau(self, x):
        """d_big tau - tau d_small on a small element."""
        return self.d_big(self.tau(x)) - self.tau(self.d_small(x))


def contraction(side):
    """Unperturbed contraction of the polyvector (a TPoly) or the
    polydifferential (a DPoly) side.  The big differential is minus the
    letter-lowering map, as in Q = -delta + rho."""
    def d_small(x):
        return x * 0

    return Contraction(side.project_small, side.include_small, side.h,
                       lambda x: -side.delta(x), d_small, side.N + 2)


def perturbed(side):
    """The contraction of a side perturbed by its `perturbation`: the
    lifted flat part of the differential, plus the insertion coboundary
    on the polydifferential side."""
    return contraction(side).perturb(side.perturbation)
