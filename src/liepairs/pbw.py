"""Normal forms in the universal enveloping algebra, the induced
symmetrization isomorphism onto U(L)/U(L)A, the flat connection it
carries, and the transition automorphism between two choices.

Monomials in U(L) are tuples of adapted-basis indices; the normal order
puts the j(B)-letters first and the A-letters last, so the classes mod
the left ideal U(L)A are labelled by multi-indices counting y-letters.
"""

from fractions import Fraction

from .core import (
    Vec, mat_inv, mat_vec, mi_add, mi_all, mi_fact, mi_sub, mi_unit,
    mi_upto, mi_zero, sym_comul, tensor_product,
)
from .liepair import ce_differential


class Pbw:

    def __init__(self, splitting, conn, trunc=5):
        self.sp = splitting
        self.conn = conn
        self.N = trunc
        self.cap = trunc + 1   # head room for one left multiplication
        self.m, self.r = splitting.m, splitting.r
        self._basis = list(mi_upto(self.r, self.cap))
        self._index = {J: i for i, J in enumerate(self._basis)}
        self._build()

    # -- normal form in the enveloping algebra --------------------------------

    def _key(self, letter):
        # j(B)-letters (adapted index >= m) sort before A-letters
        return (0, letter) if letter >= self.m else (1, letter)

    def u_reduce(self, mono, coef=Fraction(1)):
        """Class of a monomial modulo the left ideal generated by A,
        as a Vec over multi-indices (sorted y-letter monomials)."""
        out = Vec()
        stack = [(tuple(mono), Fraction(coef))]
        while stack:
            mono, c = stack.pop()
            for i in range(len(mono) - 1):
                if self._key(mono[i]) > self._key(mono[i + 1]):
                    swapped = mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2:]
                    stack.append((swapped, c))
                    br = self.sp.struct_const(mono[i], mono[i + 1])
                    for w, cc in br.items():
                        stack.append((mono[:i] + (w,) + mono[i + 2:], c * cc))
                    break
            else:
                if mono and mono[-1] < self.m:
                    continue   # ends in an A-letter: lies in the ideal
                J = [0] * self.r
                for letter in mono:
                    J[letter - self.m] += 1
                out.iadd_term(tuple(J), c)
        return out

    def y_mono(self, J):
        out = ()
        for k, e in enumerate(J):
            out += (self.m + k,) * e
        return out

    def left_mult(self, l, cls):
        """Left action of the adapted basis vector E_l on a class."""
        out = Vec()
        for J, c in cls.items():
            out += self.u_reduce((l,) + self.y_mono(J), c)
        return out

    # -- the symmetrization map ------------------------------------------------

    def sb_nabla(self, l, s):
        """The connection along E_l extended to polynomial coefficients as
        a derivation; s is a Vec over multi-indices."""
        out = Vec()
        for J, c in s.items():
            for b in range(self.r):
                if J[b] == 0:
                    continue
                base = mi_sub(J, mi_unit(self.r, b))
                for k, g in enumerate(self.conn.gamma[l][b]):
                    if g != 0:
                        out.iadd_term(mi_add(base, mi_unit(self.r, k)),
                                      c * J[b] * g)
        return out

    def _build(self):
        r = self.r
        table = {mi_zero(r): Vec({mi_zero(r): Fraction(1)})}
        for wgt in range(1, self.cap + 1):
            for J in mi_all(r, wgt):
                acc = Vec()
                for k in range(r):
                    if J[k] == 0:
                        continue
                    Jm = mi_sub(J, mi_unit(r, k))
                    t1 = self.left_mult(self.m + k, table[Jm])
                    nab = self.sb_nabla(self.m + k, Vec({Jm: Fraction(1)}))
                    t2 = Vec()
                    for J2, c in nab.items():
                        t2.iadd_scaled(c, table[J2])
                    acc.iadd_scaled(Fraction(J[k]), t1 - t2)
                table[J] = acc * Fraction(1, wgt)
        self._table = table
        n = len(self._basis)
        mat = [[table[self._basis[col]][self._basis[row]]
                for col in range(n)] for row in range(n)]
        inv = mat_inv(mat)
        # the nonzero entries of each column of the inverse, as (J, entry)
        self._inv_cols = [[(Jr, inv[row][col])
                           for row, Jr in enumerate(self._basis)
                           if inv[row][col]] for col in range(n)]

    def pbw(self, s):
        """Symmetrization map on a Vec over multi-indices."""
        out = Vec(truncated=s.truncated)
        for J, c in s.items():
            out.iadd_scaled(c, self._table[J])
        return out

    def pbw_inv(self, cls):
        out = Vec(truncated=cls.truncated)
        for J, c in cls.items():
            # Fraction first: int * Fraction takes the slow reflected path
            for Jr, e in self._inv_cols[self._index[J]]:
                out.iadd_term(Jr, e * c)
        return out

    # -- the flat connection and its dual ---------------------------------------

    def nabla_flash(self, l, s):
        """pbw^{-1} of the left action of E_l on pbw(s); inputs of weight
        at most trunc (one unit of head room is built in)."""
        return self.pbw_inv(self.left_mult(l, self.pbw(s)))

    def class_comul(self, J):
        """Comultiplication of the class of a sorted y-monomial: the
        y-letters are primitive, so this is the same shuffle count as for
        polynomial monomials."""
        return sym_comul(J)


def relabel(src, dst):
    """The map rewriting classes labelled in src's normal form into
    dst's: each y-monomial is expanded over dst's adapted frame and
    reduced there (the identity when the two frames coincide)."""
    dim = src.m + src.r
    conv = [mat_vec(dst.sp._to_adapted, src.sp.adapted[i])
            for i in range(dim)]
    if all(conv[i][u] == (1 if i == u else 0)
           for i in range(dim) for u in range(dim)):
        return lambda cls: cls

    def convert(cls):
        out = Vec()
        for J, c in cls.items():
            acc = tensor_product(c, [dict(enumerate(conv[letter]))
                                     for letter in src.y_mono(J)])
            for mono, cm in acc.items():
                out += dst.u_reduce(mono, cm)
        return out
    return convert


def transition(pbw1, pbw2):
    """The automorphism pbw1^{-1} o pbw2 of the polynomial coalgebra, as a
    dict J -> Vec over multi-indices (weight <= trunc).  When the two
    splittings differ, the normal-form classes of the second are first
    rewritten over the adapted frame of the first."""
    to_first = relabel(pbw2, pbw1)
    out = {}
    for J in mi_upto(pbw1.r, pbw1.N):
        out[J] = pbw1.pbw_inv(to_first(pbw2.pbw(Vec({J: Fraction(1)}))))
    return out


def dual_map(psi, r, trunc):
    """Dual of a filtered endomorphism of the polynomial coalgebra, as an
    algebra endomorphism table chi^K -> Vec over J, via
    dual(chi^K) = sum_J (K!/J!) psi^K_J chi^J."""
    out = {}
    for K in mi_upto(r, trunc):
        img = Vec()
        for J in mi_upto(r, trunc):
            c = psi.get(J, Vec())[K]
            if c:
                img.iadd_term(J, c * Fraction(mi_fact(K), mi_fact(J)))
        out[K] = img
    return out


def u_action(pbw_obj):
    """Left action of the A-part of the adapted basis on tensor tuples of
    classes, slotwise; coefficient keys are tuples of multi-indices."""
    def action(s, ck):
        out = Vec()
        for t in range(len(ck)):
            res = pbw_obj.left_mult(s, Vec({ck[t]: Fraction(1)}))
            for J2, c in res.items():
                out.iadd_term(ck[:t] + (J2,) + ck[t + 1:], c)
        return out
    return action


def d_a_u(pbw_obj, x):
    """CE differential with coefficients in tensor powers of the class
    module, keyed (A-form word, tuple of multi-indices)."""
    return ce_differential(pbw_obj.sp, u_action(pbw_obj), x)
