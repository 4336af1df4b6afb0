"""Sparse exact-rational multilinear algebra over graded words.

A *word* is a basis monomial of a graded-commutative algebra generated by
a few families ("colours") of odd degree-1 generators together with one
family of even generators whose powers are tracked by a multi-index.
Words are kept in canonical form: odd indices strictly increasing inside
each colour, colours in a fixed order, even exponents last.  Every sign
is computed from the parity of the sorting permutation, so equality of
elements is plain dict equality.

Scalars are exact: a coefficient stored in a Vec is an int, or a
fractions.Fraction whose denominator is greater than 1 (a Fraction with
denominator 1 is stored as its int numerator).  Never a float.
"""

from fractions import Fraction
from math import factorial, comb
import itertools
from operator import add


# ---------------------------------------------------------------------------
# multi-indices (exponent vectors J in N^r)

def mi_zero(r):
    return (0,) * r


def mi_unit(r, k):
    return tuple(1 if i == k else 0 for i in range(r))


def mi_add(J, K):
    return tuple(map(add, J, K))


def mi_sub(J, K):
    """Componentwise difference, or None if any entry would go negative."""
    out = tuple(a - b for a, b in zip(J, K))
    if any(a < 0 for a in out):
        return None
    return out


def mi_weight(J):
    return sum(J)


def mi_fact(J):
    out = 1
    for a in J:
        out *= factorial(a)
    return out


def mi_le(J, K):
    return all(a <= b for a, b in zip(J, K))


def mi_binom(J, K):
    """Product of componentwise binomials C(J_i, K_i)."""
    out = 1
    for a, b in zip(J, K):
        out *= comb(a, b)
    return out


def mi_all(r, weight):
    """All multi-indices of length r with |J| = weight."""
    if r == 0:
        if weight == 0:
            yield ()
        return
    if r == 1:
        yield (weight,)
        return
    for first in range(weight + 1):
        for rest in mi_all(r - 1, weight - first):
            yield (first,) + rest


def mi_upto(r, max_weight):
    for w in range(max_weight + 1):
        yield from mi_all(r, w)


def mi_below(J):
    """All K with K <= J componentwise."""
    return itertools.product(*[range(a + 1) for a in J])


def sym_comul(J):
    """All splittings J = K + M with multiplicity J!/(K! M!).

    Returns a list of (K, M, coefficient) triples; coefficient is an int.
    """
    out = []
    for K in mi_below(J):
        K = tuple(K)
        out.append((K, mi_sub(J, K), mi_binom(J, K)))
    return out


def falling(K, J):
    """Falling-factorial coefficient of d^J on chi^K: the product of
    K_i (K_i - 1) ... (K_i - J_i + 1)."""
    out = 1
    for a, b in zip(K, J):
        for t in range(b):
            out *= a - t
    return out


def pair_dual(K, J):
    """Dual pairing of the monomial chi^K against the operator d^J: K! if K=J."""
    return Fraction(mi_fact(K)) if K == J else Fraction(0)


def sort_sign(seq):
    """Parity of the permutation sorting seq; (0, None) on repeated entries."""
    lst = list(seq)
    sign = 1
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] == lst[j]:
                return 0, None
            if lst[i] > lst[j]:
                sign = -sign
    return sign, tuple(sorted(lst))


# ---------------------------------------------------------------------------
# sparse vectors

def _exact(c):
    """c as an int or a normalised Fraction; TypeError for a float."""
    if isinstance(c, float):
        raise TypeError("inexact coefficient %r: use int or Fraction" % c)
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Vec(dict):
    """Dictionary key -> exact scalar with zero values automatically removed.

    Stored coefficients are ints or Fractions with denominator > 1; a
    float raises TypeError.  The `truncated` flag records that some term
    was dropped for exceeding the weight cap, so callers can refuse to
    assert identities whose two sides did not both survive truncation.
    """

    def __init__(self, data=(), truncated=False):
        super().__init__()
        self.truncated = truncated
        self.__iadd__(data)

    def __getitem__(self, key):
        return self.get(key, 0)

    def iadd_term(self, key, coef):
        if not coef:
            return self
        new = self.get(key, 0) + coef
        if not new:
            self.pop(key, None)
        elif type(new) is int:
            self[key] = new
        elif type(new) is Fraction:
            self[key] = new.numerator if new.denominator == 1 else new
        else:
            self[key] = _exact(new)
        return self

    def __iadd__(self, other):
        if isinstance(other, Vec):
            self.truncated = self.truncated or other.truncated
        if isinstance(other, dict):
            other = other.items()
        for k, c in other:
            if type(c) is not int and type(c) is not Fraction:
                c = _exact(c)
            self.iadd_term(k, c)
        return self

    def __add__(self, other):
        out = Vec(self, truncated=self.truncated)
        out += other
        return out

    def __isub__(self, other):
        if isinstance(other, Vec):
            self.truncated = self.truncated or other.truncated
        for k, c in other.items():
            self.iadd_term(k, -c)
        return self

    def __sub__(self, other):
        out = Vec(self, truncated=self.truncated)
        out -= other
        return out

    def __neg__(self):
        return self * -1

    def __mul__(self, n):
        if n == 0:
            return Vec(truncated=self.truncated)
        return Vec(((k, c * n) for k, c in self.items()),
                   truncated=self.truncated)

    __rmul__ = __mul__

    def iadd_scaled(self, coef, other):
        self.truncated = self.truncated or other.truncated
        if coef == 0:
            return self
        for k, c in other.items():
            self.iadd_term(k, c * coef)
        return self

    def is_zero(self):
        return not self


def tensor_product(coef, factors):
    """coef times the tensor product of the given Vecs (or dicts), as a
    Vec over the tuples of their keys."""
    acc = Vec({(): coef})
    for f in factors:
        nxt = Vec()
        for pre, cp in acc.items():
            for k, ck in f.items():
                nxt.iadd_term(pre + (k,), cp * ck)
        acc = nxt
    return acc


# ---------------------------------------------------------------------------
# the word algebra

EVEN = 'even'


class WordAlgebra:
    """Graded-commutative algebra of words with truncated even part.

    odd_counts -- number of odd generators in each colour, in colour order
    n_even     -- number of even generators (multi-index exponents)
    trunc      -- cap on the even weight; higher terms are dropped/flagged
    """

    def __init__(self, odd_counts, n_even, trunc):
        self.odd_counts = tuple(odd_counts)
        self.n_colours = len(self.odd_counts)
        self.n_even = n_even
        self.trunc = trunc

    # -- words ------------------------------------------------------------

    def unit_word(self):
        return tuple(() for _ in self.odd_counts) + (mi_zero(self.n_even),)

    def one(self, coef=1):
        return Vec({self.unit_word(): Fraction(coef)})

    def odd_word(self, colour, idx):
        parts = [()] * self.n_colours
        parts[colour] = (idx,)
        return tuple(parts) + (mi_zero(self.n_even),)

    def even_word(self, J):
        return tuple(() for _ in self.odd_counts) + (tuple(J),)

    def make_word(self, odd_parts, J):
        return tuple(tuple(p) for p in odd_parts) + (tuple(J),)

    def odd_seq(self, w):
        """The word's odd generators as a sorted list of (colour, index)."""
        return [(c, i) for c in range(self.n_colours) for i in w[c]]

    def form_deg(self, w):
        return sum(len(w[c]) for c in range(self.n_colours))

    def words(self, max_weight=None, colour_caps=None):
        """Enumerate all basis words with even weight <= max_weight."""
        mw = self.trunc if max_weight is None else max_weight
        ranges = []
        for c, n in enumerate(self.odd_counts):
            cap = n if colour_caps is None else min(n, colour_caps[c])
            subs = [t for k in range(cap + 1)
                    for t in itertools.combinations(range(n), k)]
            ranges.append(subs)
        for parts in itertools.product(*ranges):
            for J in mi_upto(self.n_even, mw):
                yield parts + (J,)

    # -- multiplication ----------------------------------------------------

    def mul_words(self, w1, w2):
        """(sign, product word) or None when an odd generator repeats
        or the even weight exceeds the cap ('overflow' sentinel).

        Both words are canonical, so the sign is the parity of the pairs
        (a in w1, b in w2) with a > b in (colour, index) order: a later
        colour of w1 jumps every generator of an earlier colour of w2."""
        J = mi_add(w1[-1], w2[-1])
        if self.trunc is not None and mi_weight(J) > self.trunc:
            return 'overflow'
        parts = []
        jumps = 0
        earlier = 0  # generators of w2 in the colours before this one
        for a, b in zip(w1[:-1], w2[:-1]):
            jumps += len(a) * earlier
            earlier += len(b)
            if not a:
                parts.append(b)
            elif not b:
                parts.append(a)
            else:
                for y in b:
                    for x in a:
                        if x > y:
                            jumps += 1
                        elif x == y:
                            return None
                parts.append(tuple(sorted(a + b)))
        parts.append(J)
        return (-1 if jumps % 2 else 1), tuple(parts)

    def mul(self, x, y):
        out = Vec(truncated=x.truncated or y.truncated)
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                r = self.mul_words(w1, w2)
                if r is None:
                    continue
                if r == 'overflow':
                    out.truncated = True
                    continue
                sign, w = r
                out.iadd_term(w, c1 * c2 * sign)
        return out

    # -- derivations and morphisms ------------------------------------------

    def derive(self, images, parity, x):
        """Extend generator images to a derivation of the stated parity.

        images maps (colour, index) or (EVEN, index) to a Vec; missing
        generators map to zero.  For odd `parity` the Leibniz rule picks up
        a sign per odd generator jumped over.

        Each image term costs one product.  Write the word as
        pre * g * suf; then pre * img * suf = (-1)^(|img| |suf|)
        (pre * suf) * img, where |.| counts odd letters, and pre * suf is
        the word with g taken out (for an even g the suffix holds no odd
        letter, so the sign is +1).  The `truncated` flag is set exactly
        as the two products pre * img and then * suf would set it: an
        overflowing image term flags the result when its own weight is
        over the cap, or when it shares no odd letter with pre (sharing
        one makes pre * img vanish before its weight is looked at).
        """
        out = Vec(truncated=x.truncated)
        odd = parity % 2
        for w, coef in x.items():
            parts, J = w[:-1], w[-1]
            n = sum(map(len, parts))
            t = 0  # odd generators before the one being replaced
            for c, part in enumerate(parts):
                for p, i in enumerate(part):
                    img = images.get((c, i))
                    if img:
                        self._leibniz(
                            out, w, c, p,
                            parts[:c] + (part[:p] + part[p + 1:],)
                            + parts[c + 1:] + (J,), img, (n - t - 1) % 2,
                            -coef if odd and t % 2 else coef)
                    t += 1
            base = -coef if odd and t % 2 else coef
            for k, jk in enumerate(J):
                if jk == 0:
                    continue
                img = images.get((EVEN, k))
                if img:
                    self._leibniz(out, w, self.n_colours, 0,
                                  parts + (J[:k] + (jk - 1,) + J[k + 1:],),
                                  img, 0, base * jk)
        return out

    def _leibniz(self, out, w, c, p, rest, img, swap, coef):
        """out += coef * pre * img * suf, where w = pre * g * suf with g
        letter p of colour c (c = n_colours for an even letter), rest is
        pre * suf and swap is the parity of the odd letters of suf."""
        if img.truncated:
            out.truncated = True
        for iw, ic in img.items():
            r = self.mul_words(rest, iw)
            if r is None:
                continue
            if r == 'overflow':
                if not out.truncated and (
                        mi_weight(iw[-1]) > self.trunc
                        or not self._meets_prefix(w, c, p, iw)):
                    out.truncated = True
                continue
            sign, word = r
            if swap and sum(map(len, iw[:-1])) % 2:
                sign = -sign
            out.iadd_term(word, coef * ic * sign)

    @staticmethod
    def _meets_prefix(w, c, p, iw):
        """Whether iw shares an odd letter with the letters of w before
        letter p of colour c."""
        for cc in range(c):
            if set(w[cc]).intersection(iw[cc]):
                return True
        return c < len(w) - 1 and bool(set(w[c][:p]).intersection(iw[c]))

    def substitute(self, images, x):
        """Extend generator images to an algebra endomorphism.

        Generators absent from images are sent to themselves.  Images must
        have the same parity as the generator they replace.
        """
        out = Vec(truncated=x.truncated)
        for w, coef in x.items():
            acc = self.one(coef)
            for g in self.odd_seq(w):
                img = images.get(g)
                if img is None:
                    img = Vec({self.odd_word(*g): Fraction(1)})
                acc = self.mul(acc, img)
            J = w[-1]
            for k in range(self.n_even):
                for _ in range(J[k]):
                    img = images.get((EVEN, k))
                    if img is None:
                        img = Vec({self.even_word(mi_unit(self.n_even, k)): Fraction(1)})
                    acc = self.mul(acc, img)
            out += acc
        return out

    def contract_odd(self, colour, idx, x):
        """Interior product with the dual of one odd generator."""
        return self.derive({(colour, idx): self.one()}, 1, x)

    def dchi(self, k, x):
        """d/dchi_k: the even derivation along one even generator."""
        return self.derive({(EVEN, k): self.one()}, 0, x)


# ---------------------------------------------------------------------------
# exact dense linear algebra (small matrices of Fractions)

def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Each elimination step touches only the pivot row's nonzero columns."""
    rows = [[v if type(v) is Fraction else Fraction(v) for v in r]
            for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        nz = [j for j in range(col, ncols) if prow[j]]
        inv = Fraction(1) / prow[col]
        for j in nz:
            prow[j] *= inv
        for i, row in enumerate(rows):
            f = row[col]
            if i != rank and f != 0:
                for j in nz:
                    row[j] -= f * prow[j]
        pivots.append(col)
        rank += 1
    return rows, pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by `rows`."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_inv(a):
    n = len(a)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]

