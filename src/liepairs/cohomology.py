"""Cohomology of the small complexes by exact linear algebra, and the
structures it inherits.

A small complex is handed over as a finite ordered list of basis keys,
a differential acting on Vecs over those keys, a degree function and
the top degree to compute.  Each d_n is kept as sparse rows, one dict
{column: entry} per degree-n key, and reduced over the rationals by the
one exact elimination, core.rref.  Representatives are kernel vectors
reduced modulo the image, kept in reduced echelon form, so that
projection to cohomology coordinates is plain back-substitution.  The
binary bracket and the product descend to cohomology, and two pipelines
can be compared there after transporting representatives.
"""

import itertools

from .core import Vec, kernel_basis, linear, mi_upto, rref, sub_scaled
from .liepair import a_form_algebra, d_a_bott
from .transfer import small_sdeg


class Cohomology:
    """The cohomology of a small complex, in the degrees up to `top`
    (every degree when top is None).  Keys of degree top + 1 only index
    the codomain of d_top."""

    def __init__(self, keys, diff, deg, top=None):
        self.diff = diff
        self.deg = deg
        self.by_deg = {}
        for key in keys:
            self.by_deg.setdefault(deg(key), []).append(key)
        self.degrees = sorted(n for n in self.by_deg
                              if top is None or n <= top)
        self._index = {n: {k: i for i, k in enumerate(ks)}
                       for n, ks in self.by_deg.items()}
        # d_n as one sparse row per degree-n key, over the degree n + 1 keys
        self._rows = {n: [self._coords(diff(Vec({key: 1})), n + 1)
                          for key in self.by_deg[n]]
                      for n in self.degrees}
        self._check_square_zero()
        # the image of d_{n-1} in echelon form, then the kernel of d_n
        # reduced modulo it, in echelon form: the representatives
        self._image = {}
        for n in self.degrees:
            rows, piv = rref(self._rows.get(n - 1, []))
            self._image[n] = dict(zip(piv, rows))
        self.reps = {}
        for n in self.degrees:
            cols = [{} for _ in self.by_deg.get(n + 1, [])]
            for i, row in enumerate(self._rows[n]):
                for j, a in row.items():
                    cols[j][i] = a
            reduced = (self._reduce(v, self._image[n])
                       for v in kernel_basis(cols, len(self.by_deg[n])))
            self.reps[n] = rref(v for v in reduced if v)

    # -- coordinate plumbing ----------------------------------------------------

    def _coords(self, x, n):
        """x as a sparse row over the degree-n keys."""
        idx = self._index.get(n, {})
        try:
            return {idx[k]: c for k, c in x.items()}
        except KeyError:
            raise ValueError("element leaves the complex window") from None

    def _check_square_zero(self):
        """d(d(key)) = 0 for every key whose d_{n+1} is built, composed
        from the rows: d is linear, and d(key) already lies in the
        window."""
        for n in self.degrees:
            nxt = self._rows.get(n + 1)
            if nxt is None:
                continue
            for row in self._rows[n]:
                if linear(nxt.__getitem__, row):
                    raise ValueError("differential does not square to zero")

    @staticmethod
    def _reduce(v, echelon):
        """v reduced against reduced echelon rows, given as {pivot: row}:
        reducing by one row leaves the other pivot columns alone."""
        v = dict(v)
        for p in [j for j in v if j in echelon]:
            sub_scaled(v, v[p], echelon[p])
        return v

    # -- the public face ----------------------------------------------------------

    def dims(self):
        return {n: len(self.reps[n][0]) for n in self.degrees}

    def rep(self, n, i):
        keys = self.by_deg[n]
        return Vec({keys[j]: c for j, c in self.reps[n][0][i].items()})

    def project(self, x, n):
        """Cohomology coordinates of a cocycle of degree n: its reduction
        modulo the image, read at the pivots of the representatives."""
        v = self._reduce(self._coords(x, n), self._image[n])
        rows, piv = self.reps[n]
        out = [v.get(p, 0) for p in piv]
        if self._reduce(v, dict(zip(piv, rows))):
            raise ValueError("not a cocycle modulo the image")
        return out


def t_complex_keys(sp):
    fa = a_form_algebra(sp.pair)
    out = []
    for fw in fa.words(max_weight=0):
        for q in range(sp.r + 1):
            for xs in itertools.combinations(range(sp.r), q):
                out.append((fw, xs))
    return out


def t_cohomology(sp):
    """Cohomology of the polyvector small complex (finite), graded by
    the shifted total degree."""
    return Cohomology(t_complex_keys(sp), lambda x: d_a_bott(sp, x),
                      small_sdeg)


def d_complex_keys(sp, max_weight=1, max_arity=2):
    """Polydifferential small keys: A-form words with slot classes of
    arity at most max_arity and total class weight at most max_weight;
    the defaults give the window the CLI checks probe."""
    fa = a_form_algebra(sp.pair)
    weighted = [(J, sum(J)) for J in mi_upto(sp.r, max_weight)]
    classes = [cls for arity in range(1, max_arity + 1)
               for cls in _class_tuples(weighted, arity, max_weight)]
    return [(fw, cls) for fw in fa.words(max_weight=0) for cls in classes]


def _class_tuples(weighted, arity, budget):
    """The arity-tuples over `weighted` (multi-indices with their weights,
    by increasing weight) of total weight at most budget, in the order
    of itertools.product."""
    if arity == 0:
        yield ()
        return
    for J, w in weighted:
        if w > budget:
            return
        for rest in _class_tuples(weighted, arity - 1, budget - w):
            yield (J,) + rest


def d_cohomology(sp, d_small, max_weight=2, max_arity=None):
    """Cohomology of the polydifferential small complex in the degrees
    up to max_arity - 2, on the keys of class weight at most max_weight
    and degree at most max_arity - 1.  The weight bound cuts out a
    subcomplex (the differential never raises the total class weight),
    and a key of degree at most max_arity - 1 has arity at most
    max_arity, so the window holds d of every degree it builds."""
    if max_arity is None:
        max_arity = sp.m + 3
    keys = [key for key in d_complex_keys(sp, max_weight, max_arity)
            if small_sdeg(key) <= max_arity - 1]
    return Cohomology(keys, d_small, small_sdeg, top=max_arity - 2)


def t_cup(T, pt):
    """Chain-level product on the polyvector small complex, transferred
    from the big wedge through the perturbed contraction; raises the
    shifted degree by one."""
    def cup(x, y):
        return pt.sigma(T.alg.mul(pt.tau(x), pt.tau(y)))
    return cup


def induced_table(coh, op, n1, n2, n_out):
    """Tables of a chain-level binary operation on cohomology: entry
    (i, j) is the projected value on the chosen representatives."""
    out = {}
    for i in range(len(coh.reps[n1][0])):
        for j in range(len(coh.reps[n2][0])):
            val = op(coh.rep(n1, i), coh.rep(n2, j))
            out[(i, j)] = coh.project(val, n_out)
    return out

