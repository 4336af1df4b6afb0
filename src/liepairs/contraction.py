"""Contractions and homological perturbation.

A contraction packages a projection, an inclusion, a homotopy and the
two differentials.  Perturbing the big differential by a
filtration-raising operator yields new data by the usual geometric
series, which terminates here because the homotopy raises the
power-series weight by one at every pass.
"""


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
        kmax = self.kmax

        def series(first):
            """x -> sum_k (-h rho)^k first(x); raises if the terms have not
            died out after kmax passes."""
            def apply(x):
                acc = term = first(x)
                for _ in range(kmax):
                    term = -1 * self.h(rho(term))
                    if term.is_zero():
                        return acc
                    acc = acc + term
                raise RuntimeError("perturbation series did not terminate "
                                   "within %d passes" % kmax)
            return apply

        tau_new = series(self.tau)

        def d_small_new(x):
            return self.d_small(x) + self.sigma(rho(tau_new(x)))

        def d_big_new(x):
            return self.d_big(x) + rho(x)

        return Contraction(self.sigma, tau_new, series(self.h), d_big_new,
                           d_small_new, kmax)

    # -- identity checks, each returning the defect --------------------------

    def defect_projection(self, x):
        """sigma tau - id on a small element."""
        return self.sigma(self.tau(x)) - x

    def defect_homotopy(self, x):
        """id - tau sigma - (h d + d h) on a big element."""
        return (x - self.tau(self.sigma(x))
                - self.h(self.d_big(x)) - self.d_big(self.h(x)))

    def defect_side_sh(self, x):
        return self.sigma(self.h(x))

    def defect_side_ht(self, x):
        return self.h(self.tau(x))

    def defect_side_hh(self, x):
        return self.h(self.h(x))

    def defect_chain_sigma(self, x):
        """sigma d_big - d_small sigma on a big element."""
        return self.sigma(self.d_big(x)) - self.d_small(self.sigma(x))

    def defect_chain_tau(self, x):
        """d_big tau - tau d_small on a small element."""
        return self.d_big(self.tau(x)) - self.tau(self.d_small(x))


def t_contraction(side):
    """Unperturbed contraction of the polyvector (a TPoly) or the
    polydifferential (a DPoly) side.  The big differential is minus the
    letter-lowering map, so the homotopy carries a matching sign; the
    perturbation is the lifted flat part of the differential, plus the
    insertion coboundary on the polydifferential side."""
    def d_small(x):
        return x * 0

    return Contraction(side.project_small, side.include_small,
                       lambda x: -1 * side.h(x),
                       lambda x: -1 * side.delta(x), d_small, side.N + 2)


d_contraction = t_contraction


def t_perturbation(T):
    return T.rho


def d_perturbation(D):
    def rho(x):
        return D.rho(x) + D.d_h(x)
    return rho
