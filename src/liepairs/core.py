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
from functools import cache
from heapq import heapify, heappop, heappush
from math import comb, factorial, lcm
import itertools
from operator import add, neg


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


@cache
def sym_comul(J):
    """All splittings J = K + M with multiplicity J!/(K! M!).

    Returns a list of (K, M, coefficient) triples; coefficient is an int.
    The list is built once per J and shared: callers must not mutate it.
    """
    out = []
    for K in mi_below(J):
        K = tuple(K)
        out.append((K, mi_sub(J, K), mi_binom(J, K)))
    return out


@cache
def multi_splits(J, parts):
    """All ways to write J as an ordered sum of `parts` multi-indices,
    with the multinomial coefficient J!/(M_0! ... ).  The list is built
    once per argument and shared: callers must not mutate it."""
    if parts == 1:
        return [((J,), 1)]
    out = []
    for K, M, c in sym_comul(J):
        for rest, c2 in multi_splits(M, parts - 1):
            out.append(((K,) + rest, c * c2))
    return out


def falling(K, J):
    """Falling-factorial coefficient of d^J on chi^K: the product of
    K_i (K_i - 1) ... (K_i - J_i + 1)."""
    out = 1
    for a, b in zip(K, J):
        for t in range(b):
            out *= a - t
    return out


def koszul_sign(degs, order):
    """Sign for reordering positions 0..n-1 into `order`, with the given
    degrees: each pair that the reordering swaps, of degrees p and q,
    costs (-1)^(p q)."""
    e = 0
    for j, b in enumerate(order):
        for a in order[:j]:
            if a > b:
                e += degs[a] * degs[b]
    return -1 if e % 2 else 1


def sort_sign(seq):
    """(parity of the permutation sorting seq, the sorted tuple): the
    Koszul sign of the sorting with every degree 1; (0, None) on
    repeated entries."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    out = tuple(seq[i] for i in order)
    if any(a == b for a, b in zip(out, out[1:])):
        return 0, None
    return koszul_sign((1,) * len(out), order), out


# ---------------------------------------------------------------------------
# sparse vectors

def _exact(c):
    """c as an int or a normalised Fraction; TypeError for a float."""
    if isinstance(c, float):
        raise TypeError("inexact coefficient %r: use int or Fraction" % c)
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def common_denominator(x):
    """The lcm of the denominators of the coefficients of x: an operator
    that works on integer numerators scales each coefficient c of x to
    the int c * common_denominator(x)."""
    d = 1
    for c in x.values():
        if type(c) is not int:
            e = (c if type(c) is Fraction else _exact(c)).denominator
            if d % e:
                d = lcm(d, e)
    return d


class Vec(dict):
    """Dictionary key -> exact scalar with zero values automatically removed.

    Stored coefficients are ints or Fractions with denominator > 1; a
    float raises TypeError.
    """

    def __init__(self, data=()):
        # dict.__new__ has made the empty dict; only data is added here
        if type(data) is Vec:
            self.update(data)  # already normalised
        elif data:
            self.__iadd__(data)

    def __getitem__(self, key):
        return self.get(key, 0)

    def iadd_term(self, key, coef):
        if not coef:
            return self
        old = self.get(key)
        new = coef if old is None else old + coef
        if not new:
            del self[key]
        elif type(new) is int:
            self[key] = new
        elif type(new) is Fraction:
            self[key] = new.numerator if new.denominator == 1 else new
        else:
            self[key] = _exact(new)
        return self

    def __iadd__(self, other):
        if isinstance(other, dict):
            other = other.items()
        for k, c in other:
            if type(c) is not int and type(c) is not Fraction:
                c = _exact(c)
            self.iadd_term(k, c)
        return self

    def __add__(self, other):
        out = Vec(self)
        out += other
        return out

    def __isub__(self, other):
        for k, c in other.items():
            self.iadd_term(k, -c)
        return self

    def __sub__(self, other):
        out = Vec(self)
        out -= other
        return out

    def __neg__(self):
        out = Vec()
        out.update(zip(self.keys(), map(neg, self.values())))
        return out

    def __mul__(self, n):
        if type(n) is not int:
            n = _exact(n)
        if n == 0:
            return Vec()
        if n == 1:
            return Vec(self)
        if n == -1:
            return -self
        return Vec((k, c * n) for k, c in self.items())

    __rmul__ = __mul__

    def iadd_scaled(self, coef, other):
        if type(coef) is not int:
            coef = _exact(coef)
        if coef == 1:
            return self.__iadd__(other)
        if coef == -1:
            return self.__isub__(other)
        if coef:
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


def tensor_map(x, head, slot_map):
    """The slotwise map on (head, slots) keys: each term c of x goes to
    c times the tensor product of the images slot_map(slot) of its
    slots, under the head head(h); a head that maps to None drops the
    term."""
    out = Vec()
    for (h, slots), c in x.items():
        h = head(h)
        if h is not None:
            for slots2, c2 in tensor_product(c, map(slot_map, slots)).items():
                out.iadd_term((h, slots2), c2)
    return out


def linear(images, x):
    """The linear extension of a map on keys, applied to x: the sum of
    c * images(key) over the terms of x.  images(key) is a Vec (or a
    dict); None or an empty one means zero."""
    out = Vec()
    for key, c in x.items():
        img = images(key)
        if img:
            out.iadd_scaled(c, img)
    return out


def on_first(op, x):
    """A word operator op applied to the word of each (word, rest) key
    of x, with rest carried along."""
    out = Vec()
    for (w, rest), c in x.items():
        for w2, c2 in op(Vec({w: c})).items():
            out.iadd_term((w2, rest), c2)
    return out


def susp_sign(x, sdeg):
    """The suspension sign term by term: x with each term of odd
    shifted degree sdeg(key) negated."""
    return Vec((key, -c if sdeg(key) % 2 else c) for key, c in x.items())


# ---------------------------------------------------------------------------
# the word algebra

EVEN = 'even'


class WordAlgebra:
    """Graded-commutative algebra of words with a weight cap on the even
    part.

    odd_counts -- number of odd generators in each colour, in colour order
    n_even     -- number of even generators (multi-index exponents)
    trunc      -- cap on the even weight; a product term over it is dropped

    The operators that take max_weight (mul, contract_odd, dchi and
    Derivation) keep only the output words of even weight at most
    max_weight, and never form the others: the same words, coefficients
    and order as restricting their full output.  max_weight=None means
    the cap itself; a value over the cap raises ValueError.
    """

    def __init__(self, odd_counts, n_even, trunc):
        self.odd_counts = tuple(odd_counts)
        self.n_colours = len(self.odd_counts)
        self.n_even = n_even
        self.trunc = trunc
        self._units = {}  # generator -> _unit(generator)

    def out_cap(self, max_weight):
        """The output cap of an operator called with max_weight."""
        if max_weight is None:
            return self.trunc
        if max_weight > self.trunc:
            raise ValueError("max_weight %r is over the algebra's cap %r"
                             % (max_weight, self.trunc))
        return max_weight

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

    def words(self, max_weight=None):
        """Enumerate all basis words with even weight <= max_weight."""
        mw = self.trunc if max_weight is None else max_weight
        ranges = []
        for n in self.odd_counts:
            subs = [t for k in range(n + 1)
                    for t in itertools.combinations(range(n), k)]
            ranges.append(subs)
        Js = list(mi_upto(self.n_even, mw))
        for parts in itertools.product(*ranges):
            for J in Js:
                yield parts + (J,)

    # -- multiplication ----------------------------------------------------

    def mul_words(self, w1, w2):
        """(sign, product word), or None when an odd generator repeats
        or the even weight exceeds the cap.

        Both words are canonical, so the sign is the parity of the pairs
        (a in w1, b in w2) with a > b in (colour, index) order: a later
        colour of w1 jumps every generator of an earlier colour of w2."""
        J = mi_add(w1[-1], w2[-1])
        if mi_weight(J) > self.trunc:
            return None
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

    def mul(self, x, y, max_weight=None):
        """x y, keeping the words of even weight at most max_weight: a
        pair of words whose weights add up past it is skipped before
        their product is formed."""
        cap = self.out_cap(max_weight)
        ys = [(w2, c2, sum(w2[-1])) for w2, c2 in y.items()]
        out = Vec()
        for w1, c1 in x.items():
            room = cap - sum(w1[-1])
            for w2, c2, wt in ys:
                if wt > room:
                    continue
                r = self.mul_words(w1, w2)
                if r is None:
                    continue
                sign, w = r
                out.iadd_term(w, c1 * c2 * sign)
        return out

    # -- derivations ------------------------------------------------------

    def derive(self, images, parity, x):
        """Extend generator images to a derivation of the stated parity
        and apply it to x; see Derivation for the rules."""
        return Derivation(self, images, parity)(x)

    def _unit(self, g):
        """The derivation of g's parity sending the generator g to 1 and
        every other one to zero, compiled once."""
        if g not in self._units:
            self._units[g] = Derivation(self, {g: self.one()}, g[0] != EVEN)
        return self._units[g]

    def contract_odd(self, colour, idx, x, max_weight=None):
        """Interior product with the dual of one odd generator: a word
        holding the letter loses it, with sign (-1)^(odd letters before
        it); a word without it maps to zero."""
        return self._unit((colour, idx))(x, max_weight)

    def dchi(self, k, x, max_weight=None):
        """d/dchi_k: a word is multiplied by J_k, and J_k is lowered by
        one; a word with J_k = 0 maps to zero."""
        return self._unit((EVEN, k))(x, max_weight)


class Derivation:
    """A derivation of a WordAlgebra, compiled once from its generator
    images and then applied to any number of elements.

    images maps (colour, index) or (EVEN, index) to a Vec; missing
    generators map to zero.  For odd `parity` the Leibniz rule picks up a
    sign per odd generator jumped over.

    Each image term costs at most one product.  Write the word as
    pre * g * suf; then pre * img * suf = (-1)^(|img| |suf|)
    (pre * suf) * img, where |.| counts odd letters, and pre * suf is the
    word with g taken out (for an even g the suffix holds no odd letter,
    so the sign is +1).  The odd letters of a word are kept as a bitmask,
    letter (c, i) at bit offset[c] + i, so that bit order is mul_words'
    (colour, index) order.  With rest the mask of pre * suf, an image
    term with odd-letter mask m, tested as mul_words tests:

    - vanishes when rest & m, a repeated odd letter;
    - otherwise contributes with the sign of the pairs (a in pre * suf,
      b in the term) with a > b, the parity of the sum over the term's
      bits b of popcount(rest >> (b + 1)), times (-1)^(|img| |suf|);
    - and overflows when the even weights of pre * suf and of the term
      add up past the cap.

    A term that vanishes or overflows is dropped, as mul_words drops it.

    All but the last decision depend on the word only through its odd
    part.  So the derivation is compiled a second time, lazily, once per
    odd part: its plan lists the terms that do not vanish in Leibniz
    order (odd letters in (colour, index) order, then the even letters
    by index, each letter's image terms in order), the odd letters'
    entries first and the even letters' after, each entry as

    - the shift: the multi-index the term adds to J (the image term's,
      minus e_k for an even letter k), as an id into the shifts, which
      are all known from the images;
    - the odd-letter mask of the product;
    - the int factor: the image coefficient times D (below) with every
      sign folded in;
    - for an even letter only, k: the term is also multiplied by J_k,
      and skipped when J_k = 0.

    The overflow is left to a table, one per output cap and filled
    lazily, one row per input multi-index J: entry s of J's row is
    J + shift s, named by a small int id given on first sight, or -1
    when J + shift s has weight over the cap (or a negative entry).  A
    product word is then the int (id of its J) << n + (its odd mask),
    with n the number of odd letters, and the call sums its terms under
    that int key.  A call makes two dict lookups per input word (its
    plan and its row) and, per plan entry, one table read and one int
    multiply-add; the word tuples are rebuilt only for the keys that
    survive, in the order they were first inserted.

    max_weight caps the output's even weight below the algebra's own
    cap: the row then marks more shifts -1.  A key's place and value in
    the output depend only on the terms that reach that key, so
    D(x, max_weight=c) holds exactly the words of D(x) of weight at
    most c, with the same coefficients and in the same order.

    The arithmetic is on integers.  D, the lcm of the denominators of
    every image coefficient, is taken once, and each image coefficient
    i_c is stored as the int i_c * D.  A call takes d_x, the lcm of the
    denominators of its input, and scales each input coefficient c to
    the int c * d_x.  Every Leibniz term is (sign or a factor J_k) * c *
    i_c, so the output is exactly

        out = (1 / (D d_x)) * sum (c d_x) (i_c D),

    the sum taken over the same terms in the same order.  The int sums
    are the rational ones times the constant D d_x, so a key cancels to
    zero (and is deleted, as iadd_term deletes it) exactly when the
    rational sum does, and the keys keep iadd_term's insertion order.
    Each surviving sum is divided once at the end: an exact quotient is
    stored as an int, any other as a Fraction; with D d_x = 1 nothing is
    divided.
    """

    def __init__(self, alg, images, parity):
        self.alg = alg
        self.odd = parity % 2
        self.offsets = tuple(itertools.accumulate((0,) + alg.odd_counts[:-1]))
        self.nbits = sum(alg.odd_counts)
        exact = {}
        for g, img in images.items():
            img = [(w, e) for w, c in img.items() if (e := _exact(c))]
            if img:
                exact[g] = img
        self.den = lcm(*(c.denominator for img in exact.values()
                         for _, c in img))
        self._shifts = {}  # shift -> shift id, in id order
        # letter bit / even index -> the image's terms
        self._odd = {}
        even = {}
        for g, img in exact.items():
            k = g[1] if g[0] == EVEN else -1
            terms = tuple(self._term(w, c, k) for w, c in img)
            if k >= 0:
                even[k] = terms
            else:
                self._odd[self.offsets[g[0]] + g[1]] = terms
        self._even = sorted(even.items())
        self._plans = {}  # odd part -> plan
        self._parts = {}  # odd mask -> odd part
        self._ids = {}  # multi-index -> J id
        self._js = []  # J id -> multi-index
        self._rows = {}  # output cap -> {J: row}

    def _term(self, w, coef, k):
        """An image term of generator k (-1 for an odd one): (word,
        coefficient times D as an int, shift id, parity of its odd
        letters, odd-letter mask, the mask's bits, nonempty colours)."""
        bits = tuple(o + i for o, part in zip(self.offsets, w) for i in part)
        mask = 0
        for b in bits:
            mask |= 1 << b
        dJ = w[-1]
        if k >= 0:
            dJ = dJ[:k] + (dJ[k] - 1,) + dJ[k + 1:]
        shift = self._shifts.setdefault(dJ, len(self._shifts))
        return (w, coef.numerator * (self.den // coef.denominator), shift,
                len(bits) % 2, mask, bits,
                tuple(c for c in range(self.alg.n_colours) if w[c]))

    def _plan(self, parts):
        """The plan of every word with this odd part: (odd letters'
        entries, even letters' entries); see the class docstring."""
        odd, offsets, named = self.odd, self.offsets, self._parts
        mask = 0
        for o, part in zip(offsets, parts):
            for i in part:
                mask |= 1 << (o + i)
        n = mask.bit_count()
        # one entry per letter with an image: its terms, the odd part of
        # pre * suf and its mask, the parity of suf's odd letters, the
        # sign of the letter, and k
        jobs = []
        t = 0  # odd letters before the one being replaced
        for c, part in enumerate(parts):
            o = offsets[c]
            for p, i in enumerate(part):
                terms = self._odd.get(o + i)
                if terms is not None:
                    jobs.append((terms,
                                 parts[:c] + (part[:p] + part[p + 1:],)
                                 + parts[c + 1:],
                                 mask ^ (1 << (o + i)), (n - t - 1) % 2,
                                 -1 if odd and t % 2 else 1, -1))
                t += 1
        base = -1 if odd and n % 2 else 1
        for k, terms in self._even:
            jobs.append((terms, parts, mask, 0, base, k))
        odd_entries, even_entries = [], []
        for terms, rest, rest_mask, swap, sign, k in jobs:
            for iw, ic, shift, ipar, imask, ibits, icolours in terms:
                if rest_mask & imask:
                    continue
                s = swap & ipar
                for b in ibits:
                    s += (rest_mask >> (b + 1)).bit_count()
                merged = rest_mask | imask
                if merged not in named:
                    part = list(rest)
                    for col in icolours:
                        part[col] = (tuple(sorted(rest[col] + iw[col]))
                                     if rest[col] else iw[col])
                    named[merged] = tuple(part)
                f = -sign * ic if s % 2 else sign * ic
                if k >= 0:
                    even_entries.append((shift, merged, f, k))
                else:
                    odd_entries.append((shift, merged, f))
        return tuple(odd_entries), tuple(even_entries)

    def _row(self, J, cap):
        """Entry s: the J id of J + shift s, shifted past the odd mask,
        or -1 when that multi-index is over the cap or negative."""
        ids, js = self._ids, self._js
        row = []
        for dJ in self._shifts:
            T = tuple(map(add, J, dJ))
            if sum(T) > cap or (T and min(T) < 0):
                row.append(-1)
                continue
            t = ids.get(T)
            if t is None:
                t = ids[T] = len(js)
                js.append(T)
            row.append(t << self.nbits)
        return row

    def __call__(self, x, max_weight=None):
        """The derivation applied to x, on int numerators, keeping the
        words of even weight at most max_weight (default: the algebra's
        cap); see the class docstring."""
        max_weight = self.alg.out_cap(max_weight)
        out = Vec()
        if not (self._odd or self._even):
            return out
        rows = self._rows.get(max_weight)
        if rows is None:
            rows = self._rows[max_weight] = {}
        plans = self._plans
        acc = {}
        acc_get = acc.get
        dx = common_denominator(x)
        for w, coef in x.items():
            if type(coef) is not int:
                coef = coef if type(coef) is Fraction else _exact(coef)
                coef = coef.numerator * (dx // coef.denominator)
            else:
                coef *= dx
            if not coef:
                continue
            parts, J = w[:-1], w[-1]
            plan = plans.get(parts)
            if plan is None:
                plan = plans[parts] = self._plan(parts)
            row = rows.get(J)
            if row is None:
                row = rows[J] = self._row(J, max_weight)
            odd_entries, even_entries = plan
            for s, m, f in odd_entries:
                t = row[s]
                if t < 0:
                    continue
                key = t | m
                new = acc_get(key, 0) + coef * f
                if new:
                    acc[key] = new
                else:
                    del acc[key]
            for s, m, f, k in even_entries:
                t = row[s]
                if t < 0:
                    continue
                jk = J[k]
                if not jk:
                    continue
                key = t | m
                new = acc_get(key, 0) + coef * f * jk
                if new:
                    acc[key] = new
                else:
                    del acc[key]
        den = self.den * dx
        named, js, nbits = self._parts, self._js, self.nbits
        low = (1 << nbits) - 1
        for key, num in acc.items():
            word = named[key & low] + (js[key >> nbits],)
            if den != 1:
                q, r = divmod(num, den)
                num = Fraction(num, den) if r else q
            out[word] = num
        return out


# ---------------------------------------------------------------------------
# exact sparse linear algebra: a row is a dict {column: entry} whose
# entries are nonzero ints or Fractions with denominator > 1, as in a Vec

def sub_scaled(v, f, row):
    """v -= f * row, in place, on sparse rows."""
    for j, b in row.items():
        new = v.get(j, 0) - f * b
        if not new:
            del v[j]
        elif type(new) is Fraction and new.denominator == 1:
            v[j] = new.numerator
        else:
            v[j] = new


def rref(rows):
    """Reduced row echelon form of sparse rows: (rows, pivots), the
    nonzero rows sorted by pivot, each with entry 1 at its own pivot and
    no entry at the others, and the pivot columns in increasing order.

    The rows are taken one at a time.  Each is reduced against the rows
    kept so far, lowest pivot first (a kept row has no entry left of its
    pivot, so reducing by it leaves the lower pivot columns alone), and
    kept, scaled to 1 at its first column.  Then each kept row, highest
    pivot first, is reduced against the rows above it.  The result is
    the reduced echelon form, which is unique."""
    kept = {}
    for row in rows:
        v = dict(row)
        todo = [j for j in v if j in kept]
        heapify(todo)
        while todo:
            p = heappop(todo)
            f = v.get(p)
            if f:
                r = kept[p]
                sub_scaled(v, f, r)
                for j in r:
                    if j != p and j in kept:
                        heappush(todo, j)
        if v:
            p = min(v)
            f = v[p]
            if f != 1:
                inv = 1 / Fraction(f)
                for j, b in v.items():
                    c = b * inv
                    v[j] = c.numerator if c.denominator == 1 else c
            kept[p] = v
    pivots = sorted(kept)
    for p in reversed(pivots):
        r = kept[p]
        for q in [j for j in r if j != p and j in kept]:
            sub_scaled(r, r[q], kept[q])
    return [kept[p] for p in pivots], pivots


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix given by sparse `rows`
    over columns 0..ncols-1: one vector per free column, in column
    order, with 1 at that column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for fc, e in row.items():
            if fc != pc:
                basis[fc][pc] = -e
    return list(basis.values())


def mat_inv(a):
    """Inverse of the square matrix a (a list of rows), as a list of
    rows, by the reduced echelon form of (a | 1)."""
    n = len(a)
    red, pivots = rref([{j: _exact(x) for j, x in enumerate(row) if x}
                        | {n + i: 1} for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [[Fraction(row.get(n + j, 0)) for j in range(n)] for row in red]
