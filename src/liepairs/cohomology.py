"""Cohomology of the small complexes by exact linear algebra, and the
structures it inherits.

A small complex is handed over as a finite ordered list of basis keys,
a differential acting on Vecs over those keys, and a degree function.
Kernels and images are computed degree by degree over the rationals;
representatives are kernel vectors reduced modulo the image, kept in
echelon form so that projection to cohomology coordinates is plain
back-substitution.  The binary bracket and the product descend to
cohomology, and two pipelines can be compared there after transporting
representatives.
"""

from fractions import Fraction
import itertools

from .core import Vec, kernel_basis, mi_upto, rref
from .liepair import a_form_algebra, d_a_bott
from .transfer import small_sdeg


class Cohomology:

    def __init__(self, keys, diff, deg, square_check_max=None):
        self.keys = list(keys)
        self.diff = diff
        self.deg = deg
        self.square_check_max = square_check_max
        self.by_deg = {}
        for key in self.keys:
            self.by_deg.setdefault(deg(key), []).append(key)
        self.degrees = sorted(self.by_deg)
        self._index = {n: {k: i for i, k in enumerate(ks)}
                       for n, ks in self.by_deg.items()}
        # differential d_n as rows indexed by the degree-n basis
        self._rows = {}
        for n in self.degrees:
            rows = []
            for key in self.by_deg[n]:
                img = diff(Vec({key: 1}))
                rows.append(self._coords(img, n + 1))
            self._rows[n] = rows
        self._check_square_zero()
        # image echelon rows sitting in each degree, from one below, kept
        # as their nonzero entries
        self._image = {}
        for n in self.degrees:
            rows = self._rows.get(n - 1, [])
            red, piv = rref([r for r in rows if any(r)] or
                            [[Fraction(0)] * len(self.by_deg[n])])
            self._image[n] = (sparse_rows(red[:len(piv)]), piv)
        # kernel of d_n, then representatives modulo the image
        self.reps = {}
        self._rep_rows = {}
        for n in self.degrees:
            ker = kernel_basis([list(col) for col in zip(*self._rows[n])],
                               len(self.by_deg[n]))
            im_rows, im_piv = self._image[n]
            reduced = []
            for v in ker:
                w = self._reduce(v, im_rows, im_piv)
                if any(w):
                    reduced.append(w)
            red, piv = rref(reduced or [[Fraction(0)] *
                                        len(self.by_deg[n])])
            self.reps[n] = (red[:len(piv)], piv)
            self._rep_rows[n] = sparse_rows(self.reps[n][0])

    # -- coordinate plumbing ----------------------------------------------------

    def _coords(self, x, n):
        idx = self._index.get(n, {})
        out = [Fraction(0)] * len(self.by_deg.get(n, []))
        for k, c in x.items():
            if k not in idx:
                raise ValueError("element leaves the complex window")
            out[idx[k]] = Fraction(c)
        return out

    def _to_vec(self, coords, n):
        return Vec({k: c for k, c in zip(self.by_deg[n], coords) if c})

    def _check_square_zero(self):
        """d(d(key)) = 0 for every key, composed from the rows: d is
        linear, and d(key) already lies in the window."""
        for n in self.degrees:
            if (self.square_check_max is not None
                    and n > self.square_check_max):
                continue
            nxt = sparse_rows(self._rows.get(n + 1, []))
            for row in self._rows[n]:
                dd = Vec()
                for j, a in enumerate(row):
                    if a:
                        for i, b in nxt[j]:
                            dd.iadd_term(i, a * b)
                if dd:
                    raise ValueError("differential does not square to zero")

    @staticmethod
    def _reduce(v, rows, piv):
        """v reduced against echelon rows given by their nonzero entries."""
        v = list(v)
        for row, p in zip(rows, piv):
            f = v[p]
            if f:
                for j, b in row:
                    v[j] -= f * b
        return v

    # -- the public face ----------------------------------------------------------

    def dims(self):
        return {n: len(self.reps[n][0]) for n in self.degrees}

    def rep(self, n, i):
        return self._to_vec(self.reps[n][0][i], n)

    def is_coboundary(self, x, n):
        v = self._coords(x, n)
        rows, piv = self._image[n]
        return not any(self._reduce(v, rows, piv))

    def project(self, x, n):
        """Cohomology coordinates of a cocycle of degree n."""
        v = self._reduce(self._coords(x, n), *self._image[n])
        # the rows are in reduced echelon form: reducing by one row leaves
        # the other pivot entries alone, so they are the coordinates
        out = [v[p] for p in self.reps[n][1]]
        v = self._reduce(v, self._rep_rows[n], self.reps[n][1])
        if any(v):
            raise ValueError("not a cocycle modulo the image")
        return out


def sparse_rows(rows):
    """Each row as the list of its nonzero (column, entry) pairs."""
    return [[(j, b) for j, b in enumerate(row) if b] for row in rows]


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
    """Cohomology of the polydifferential small complex restricted to
    the finite window of bounded class weight and arity.  The weight
    bound cuts out a genuine subcomplex (the differential never raises
    the total class weight); the arity cap does not, so the differential
    is clamped to the window and only the degrees listed in
    `valid_degrees` (where the clamp is inactive) are meaningful."""
    if max_arity is None:
        max_arity = sp.m + 3
    keys = d_complex_keys(sp, max_weight, max_arity)
    keyset = set(keys)

    def clamped(x):
        return Vec(((k, c) for k, c in d_small(x).items() if k in keyset))

    coh = Cohomology(keys, clamped, small_sdeg,
                     square_check_max=max_arity - 3)
    coh.valid_degrees = [n for n in coh.degrees if n <= max_arity - 2]
    return coh


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


def compare_on_cohomology(coh1, op1, coh2, op2, transport, n1, n2, n_out):
    """Transport the first representatives, project both operation
    values in the second cohomology, and collect disagreements."""
    witnesses = []
    for i in range(len(coh1.reps[n1][0])):
        for j in range(len(coh1.reps[n2][0])):
            r1 = coh1.rep(n1, i)
            r2 = coh1.rep(n2, j)
            lhs = coh2.project(transport(op1(r1, r2)), n_out)
            rhs = coh2.project(op2(transport(r1), transport(r2)), n_out)
            if lhs != rhs:
                witnesses.append(((n1, i), (n2, j), lhs, rhs))
    return witnesses
