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

On both sides of the resolution the weight is the total degree in the
even generators chi (mi_weight of a word's last part), and three rules
fix how each operator moves it:

  * h raises it by exactly one (Weyl.h);
  * d_big = -delta lowers it by exactly one (Weyl.d_big);
  * rho never lowers it: on words it is a derivation whose generator
    images have weight at least that of their generator (1 for an even
    letter, 0 for an odd one), which Weyl.set_rho checks when the
    table is set and raises otherwise; DPoly's slot part multiplies the
    coefficient word by further words, and the insertion coboundary
    d_h leaves the word alone.

sigma keeps weight 0 only.  h, d_big and rho each take max_weight, an
output cap: op(x, c) is op(x) restricted to weight c, and no word over
c is formed.  By the rules, a word of weight at most c in the output of a
composition comes only from input words of bounded weight, so each
capped composition below equals the restricted one:

  * a pass h(rho(t, c - 1), c) of the series: h adds exactly one, so
    its words of weight <= c come from words of rho(t) of weight
    <= c - 1.  Every pass of tau' and h' is capped, and with cap c the
    series is the restricted series; tau' is kept uncapped, per key;
  * h'(d'(x, c - 1), c) and d'(h'(x, c + 1), c) in defect_homotopy:
    h' raises the weight by at least one, and d' = d_big + rho lowers it
    by at most one;
  * sigma(rho(tau x, 0)) in d_small': sigma reads weight 0 only, and
    so sigma h = sigma(h(x, 0)) is zero on every word.

d_small' needs no series at all: sigma rho h = 0, since rho h keeps
weight at least one, so sigma rho of each term (h rho)^k tau with k >= 1
is zero word by word, before any cancellation, and no term the cap drops
can change it: rho tau' is applied once, to tau alone.
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
        """New contraction for the perturbed differential d_big + rho.
        Its h and d_big take max_weight, as the given h, d_big and rho
        do."""
        kmax, h = self.kmax, self.h

        def series(first, cap):
            """sum_k (h rho)^k first, each pass capped at weight cap.
            Raises if the terms have not died out after kmax passes."""
            below = None if cap is None else cap - 1
            acc = term = first
            for _ in range(kmax):
                term = h(rho(term, below), cap)
                if term.is_zero():
                    return acc
                acc = acc + term
            raise RuntimeError("perturbation series did not terminate "
                               "within %d passes" % kmax)

        @cache
        def tau_key(key):
            return series(self.tau(Vec({key: 1})), None)

        def tau_new(x):
            return linear(tau_key, x)

        @cache
        def d_small_key(key):
            x = Vec({key: 1})
            return self.d_small(x) + self.sigma(rho(self.tau(x), 0))

        def d_small_new(x):
            return linear(d_small_key, x)

        def h_new(x, max_weight=None):
            return series(h(x, max_weight), max_weight)

        def d_big_new(x, max_weight=None):
            return self.d_big(x, max_weight) + rho(x, max_weight)

        return Contraction(self.sigma, tau_new, h_new, d_big_new,
                           d_small_new, kmax)

    # -- identity checks, each returning the defect --------------------------

    def defect_projection(self, x):
        """sigma tau - id on a small element."""
        return self.sigma(self.tau(x)) - x

    def defect_homotopy(self, x, max_weight=None):
        """h d + d h + id - tau sigma on a big element.  With max_weight c
        (below the cap), h d and d h are computed only as far as their
        words of weight at most c, as h(d(x, c - 1), c) and
        d(h(x, c + 1), c); the defect then agrees with the uncapped one
        on every word of weight at most c."""
        if max_weight is None:
            out = self.h(self.d_big(x))
            out += self.d_big(self.h(x))
        else:
            out = self.h(self.d_big(x, max_weight - 1), max_weight)
            out += self.d_big(self.h(x, max_weight + 1), max_weight)
        out += x
        out -= self.tau(self.sigma(x))
        return out

    def defect_side_ht(self, x):
        """h tau on a small element."""
        return self.h(self.tau(x))

    def defect_side_hh(self, x):
        """h h on a big element."""
        return self.h(self.h(x))

    def defect_chain_sigma(self, x):
        """sigma d_big - d_small sigma on a big element."""
        return self.sigma(self.d_big(x)) - self.d_small(self.sigma(x))

    def defect_chain_tau(self, x):
        """d_big tau - tau d_small on a small element."""
        return self.d_big(self.tau(x)) - self.tau(self.d_small(x))


def contraction(side):
    """Unperturbed contraction of the polyvector (a TPoly) or the
    polydifferential (a DPoly) side.  The big differential is minus the
    letter-lowering map, d_big = -delta, as in Q = -delta + rho."""
    def d_small(x):
        return x * 0

    return Contraction(side.project_small, side.include_small, side.h,
                       side.d_big, d_small, side.N + 2)


def perturbed(side):
    """The contraction of a side perturbed by its `perturbation`: the
    lifted flat part of the differential, plus the insertion coboundary
    on the polydifferential side."""
    return contraction(side).perturb(side.perturbation)
