"""Homotopy transfer of the big-side brackets to the small complexes.

Both big complexes are differential graded Lie algebras for a shifted
degree (one less than the count of odd letters on the polyvector side;
form degree plus arity on the polydifferential side).  Transferring
along a perturbed contraction produces graded-symmetric higher brackets
on the small complex, built from rooted binary trees: the inclusion at
the leaves, the homotopy on internal edges, the projection at the root,
and the suspended bracket at the nodes.  The recursion over trees is
the usual one grouped by the partition of the leaf set at the top node.
The homotopy is the contraction's own, with dh + hd = tau sigma - id.

The tree sums are graded symmetric in their leaves: permuting the keys
multiplies them by the Koszul sign of the permutation for the
suspended degrees small_sdeg + 1 (each unshuffle carries its sign).  So
each is built once per multiset of keys, on the sorted tuple, and an
ordered tuple reads the sorted entry times the Koszul sign of the
permutation that sorts it.  Sub-tuples of a sorted tuple are sorted, so
the recursion below the top only ever meets sorted tuples.
"""

import itertools

from .core import Vec, koszul_sign, linear, tensor_product


class Transfer:
    """L-infinity brackets on a small complex.

    sigma, tau, h and d_small come from the perturbed contraction pc;
    bracket is the big-side binary bracket pulled through the suspension
    (an extra sign from the shifted degree of its first argument makes
    it symmetric for the once-more-shifted degrees).  The shifted degree
    of a small basis key is small_sdeg's on either side.
    """

    def __init__(self, pc, bracket):
        self.sigma = pc.sigma
        self.tau = pc.tau
        self.h = pc.h
        self.d_small = pc.d_small
        self.bracket = bracket
        self._f_cache = {}
        self._b_cache = {}
        self._lam_cache = {}

    def _bracket(self, u, v, max_weight=None):
        """The suspended bracket, keeping the words of weight at most
        max_weight (default: the cap); a zero argument gives zero without
        a bracket call."""
        if not u or not v:
            return Vec()
        return self.bracket(u, v, max_weight)

    def _F(self, keys):
        """The tree sum with the homotopy at the root edge, on a sorted
        tuple."""
        if keys in self._f_cache:
            return self._f_cache[keys]
        if len(keys) == 1:
            out = self.tau(Vec({keys[0]: 1}))
        else:
            out = self.h(self._B(keys))
        self._f_cache[keys] = out
        return out

    def _B(self, keys, max_weight=None):
        """The sum over trees of the bracket at the top node, on a sorted
        tuple.  With max_weight the top brackets keep only the words of
        weight at most max_weight, and the sum is not kept: the cache
        holds uncapped sums only, as the trees above need them."""
        if max_weight is None and keys in self._b_cache:
            return self._b_cache[keys]
        n = len(keys)
        degs = [small_sdeg(k) + 1 for k in keys]
        out = Vec()
        for ssize in range(0, n - 1):
            for s_rest in itertools.combinations(range(1, n), ssize):
                left = (0,) + s_rest
                right = tuple(i for i in range(1, n) if i not in s_rest)
                eps = koszul_sign(degs, left + right)
                u = self._F(tuple(keys[i] for i in left))
                v = self._F(tuple(keys[i] for i in right))
                out += eps * self._bracket(u, v, max_weight)
        if max_weight is None:
            self._b_cache[keys] = out
        return out

    def lam_keys(self, keys):
        """Bracket value on a tuple of small basis keys: the sorted
        tuple's value times the Koszul sign of the sorting.  sigma reads
        weight 0 only, so the brackets at the top node are capped
        there."""
        if keys in self._lam_cache:
            return self._lam_cache[keys]
        if len(keys) == 1:
            out = self.d_small(Vec({keys[0]: 1}))
        else:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            srt = tuple(keys[i] for i in order)
            out = self._lam_cache.get(srt)
            if out is None:
                out = self._lam_cache[srt] = self.sigma(self._B(srt, 0))
            if koszul_sign([small_sdeg(k) + 1 for k in keys], order) < 0:
                out = -out
        self._lam_cache[keys] = out
        return out

    def lam(self, args):
        """Multilinear extension of lam_keys to a tuple of Vecs."""
        return linear(self.lam_keys, tensor_product(1, args))

    def jacobi_defect(self, keys):
        """The arity-n structure identity evaluated on small basis keys:
        the sum over all splittings of the inputs of the (n-p+1)-bracket
        applied to a p-bracket, with unshuffle Koszul signs.  Zero for a
        genuine structure."""
        n = len(keys)
        degs = [small_sdeg(k) + 1 for k in keys]
        out = Vec()
        for p in range(1, n + 1):
            for left in itertools.combinations(range(n), p):
                right = tuple(i for i in range(n) if i not in left)
                eps = koszul_sign(degs, left + right)
                inner = self.lam_keys(tuple(keys[i] for i in left))
                for k2, c2 in inner.items():
                    rest = tuple(keys[i] for i in right)
                    out += (eps * c2) * self.lam_keys((k2,) + rest)
        return out


def small_sdeg(key):
    """Shifted degree of a small basis key (A-form word, tuple of
    B-letters or of slot classes) on either side."""
    fw, letters = key
    return len(fw[0]) + len(letters) - 1
