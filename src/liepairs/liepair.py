"""Lie subalgebra pairs over a point.

A pair is a finite-dimensional Lie algebra L with a chosen subalgebra A.
The quotient B = L/A gets a canonical frame from a fixed reference
complement (the non-A basis vectors), so the projection q: L -> B is
independent of any further choices.  A splitting j: B -> L and an
L-connection on B extending the canonical flat A-action are the two
choices the rest of the pipeline depends on.
"""

from fractions import Fraction
from functools import cached_property
import itertools

from .core import (
    Derivation, Vec, WordAlgebra, linear, mat_inv, on_first, sort_sign,
    tensor_product,
)


class PairError(ValueError):
    """Raised on inconsistent pair data, with a witness."""


class SpecError(ValueError):
    """Raised when a pair spec cannot be read as one: not an object, a
    required key missing, or an entry that is not a number."""


class LiePair:
    """Validated Lie algebra with subalgebra; canonical quotient frame.

    brackets: dict (i, j) -> {k: Fraction} for i < j, original basis
    indices; antisymmetry is filled in automatically.
    """

    def __init__(self, dim, a_indices, brackets, basis=None, name=""):
        self.name = name
        self.dim = dim
        self.a_indices = tuple(sorted(a_indices))
        self.dim_a = len(self.a_indices)
        self.comp = tuple(i for i in range(dim) if i not in self.a_indices)
        self.rank = len(self.comp)
        self.basis = list(basis) if basis else ["x%d" % i for i in range(dim)]
        if len(set(self.a_indices)) != self.dim_a or any(
                i < 0 or i >= dim for i in self.a_indices):
            raise PairError("bad subalgebra index set %r" % (a_indices,))

        self._c = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise PairError("bracket index out of range in [x%d, x%d]"
                                % (i, j))
            if i == j:
                if any(v != 0 for v in coeffs.values()):
                    raise PairError("nonzero bracket [x%d, x%d]" % (i, i))
                continue
            if i > j:
                i, j = j, i
                coeffs = {k: -Fraction(v) for k, v in coeffs.items()}
            for k in coeffs:
                if not (0 <= k < dim):
                    raise PairError("inconsistent bracket entry (%d,%d,%d)"
                                    % (i, j, k))
            coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
            # given in both orders, the two entries must agree in full
            if self._c.setdefault((i, j), coeffs) != coeffs:
                raise PairError("inconsistent bracket entry: [x%d, x%d] and "
                                "[x%d, x%d] disagree" % (i, j, j, i))
        self._validate()

    # -- brackets ----------------------------------------------------------

    def bracket_basis(self, i, j):
        """[x_i, x_j] as {k: Fraction} in the original basis."""
        if i == j:
            return {}
        if i < j:
            return dict(self._c.get((i, j), {}))
        return {k: -v for k, v in self._c.get((j, i), {}).items()}

    def _validate(self):
        d = self.dim
        # Jacobi identity on basis triples: the Jacobiator of an
        # antisymmetric bracket is alternating, so the triples i < j < k
        # decide it, and the first failing one in lexicographic order is
        # the first of all d^3
        for i, j, k in itertools.combinations(range(d), 3):
            acc = Vec()
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in self.bracket_basis(b, c).items():
                    for u, y in self.bracket_basis(a, t).items():
                        acc.iadd_term(u, x * y)
            if acc:
                raise PairError(
                    "Jacobi identity fails on basis triple (%d,%d,%d)"
                    % (i, j, k))
        # A closed under the bracket
        aset = set(self.a_indices)
        for i in aset:
            for j in aset:
                for k, v in self.bracket_basis(i, j).items():
                    if v != 0 and k not in aset:
                        raise PairError(
                            "subalgebra not closed: [x%d,x%d] has x%d term"
                            % (i, j, k))


class Splitting:
    """A section j: B -> L of q, plus the data derived from it.

    jmatrix is a dim x rank matrix whose columns are j(d_k) in original
    coordinates; the default takes the reference complement itself.
    The adapted basis is (A-basis..., j(d_0), ..., j(d_{r-1})), kept in
    `adapted` as Vec columns in original coordinates, and all downstream
    operators use adapted indices 0..dim-1 (A part first).
    """

    def __init__(self, pair, jmatrix=None):
        self.pair = pair
        d, r, m = pair.dim, pair.rank, pair.dim_a
        self.adapted = [Vec({a: 1}) for a in pair.a_indices]
        for k in range(r):
            col = (Vec({pair.comp[k]: 1}) if jmatrix is None
                   else Vec((i, row[k]) for i, row in enumerate(jmatrix)))
            # splitting axiom: q(j(d_k)) = d_k
            if [col[c] for c in pair.comp] != [int(t == k) for t in range(r)]:
                raise PairError("splitting axiom q(j(b)) = b fails at k=%d" % k)
            self.adapted.append(col)
        # the adapted coordinates of each original basis vector: the rows
        # of the inverse of the matrix whose rows are the adapted columns
        self._coords = [Vec(enumerate(row)) for row in mat_inv(
            [[col[i] for i in range(d)] for col in self.adapted])]
        # adapted structure constants
        self.struct = {}
        for u in range(d):
            for v in range(u + 1, d):
                br = linear(lambda ij: pair.bracket_basis(*ij),
                            tensor_product(1, [self.adapted[u],
                                               self.adapted[v]]))
                coords = self.adapted_coords(br)
                if coords:
                    self.struct[(u, v)] = coords
        self.m = m
        self.r = r

    def adapted_coords(self, x):
        """A Vec in original coordinates, rewritten in adapted ones."""
        return linear(self._coords.__getitem__, x)

    @cached_property
    def ce_base(self):
        """The A-form algebra and d_A, compiled from its generator
        images d alpha_w = -sum_{u<v} c^w_{uv} alpha_u ^ alpha_v, for
        ce_differential."""
        fa = a_form_algebra(self.pair)
        d_gen = {}
        for u in range(self.m):
            for v in range(u + 1, self.m):
                for w, c in self.struct_const(u, v).items():
                    img = d_gen.setdefault((0, w), Vec())
                    img.iadd_term(fa.make_word([(u, v)], ()), -c)
        return fa, Derivation(fa, d_gen, 1)

    def struct_const(self, u, v):
        """[E_u, E_v] in adapted coordinates, as {w: coefficient}."""
        if u == v:
            return {}
        if u < v:
            return dict(self.struct.get((u, v), {}))
        return {w: -c for w, c in self.struct.get((v, u), {}).items()}

    def bott(self, u, k):
        """q[E_u, j(d_k)] as {B-index: coef}, the B-part of the adapted
        structure constants; for u < m, the canonical flat A-action."""
        return {w - self.m: c
                for w, c in self.struct_const(u, self.m + k).items()
                if w >= self.m}

    def q_of_adapted(self, u):
        """q(E_u) in the canonical B-frame: zero on A, d_{u-m} on the rest."""
        if u < self.m:
            return {}
        return {u - self.m: Fraction(1)}


class Connection:
    """L-connection on B in the adapted frame: nabla_{E_l} d_b = sum_k
    gamma[l][b][k] d_k."""

    def __init__(self, splitting, gamma):
        self.splitting = splitting
        d = splitting.pair.dim
        r = splitting.r
        self.gamma = [[[Fraction(gamma[l][b][k]) for k in range(r)]
                       for b in range(r)] for l in range(d)]

    def nabla(self, l, b):
        """nabla_{E_l} d_b in the B-frame, as a Vec over B-indices."""
        return Vec(enumerate(self.gamma[l][b]))

    def nabla_vec(self, l, bvec):
        return linear(lambda b: self.nabla(l, b), bvec)

    def bott_keys(self):
        """(s, b) for each A-direction s and B-index b in turn."""
        sp = self.splitting
        return itertools.product(range(sp.m), range(sp.r))

    def bott_defect(self, sb):
        """nabla_{E_s} d_b minus the canonical flat A-action on d_b, at
        sb = (s, b)."""
        s, b = sb
        return self.nabla(s, b) - Vec(self.splitting.bott(s, b))

    def extends_bott(self):
        return _first_nonzero(self.bott_keys(), self.bott_defect)

    def torsion(self, u, v):
        """T(E_u, E_v) = nabla_u q(E_v) - nabla_v q(E_u) - q[E_u, E_v]."""
        sp = self.splitting
        out = self.nabla_vec(u, sp.q_of_adapted(v))
        out -= self.nabla_vec(v, sp.q_of_adapted(u))
        out -= linear(sp.q_of_adapted, sp.struct_const(u, v))
        return out

    def torsion_keys(self):
        """(u, v) for each basis pair u < v in turn."""
        return itertools.combinations(range(self.splitting.pair.dim), 2)

    def is_torsion_free(self):
        return _first_nonzero(self.torsion_keys(),
                              lambda uv: self.torsion(*uv))


def _first_nonzero(keys, defect):
    """(True, None) when defect is zero on every key, else (False, the
    first key where it is not)."""
    witness = next((key for key in keys if defect(key)), None)
    return witness is None, witness


def default_connection(splitting):
    """Torsion-free extension of the canonical flat A-action: on A-directions
    it is that action, on j(B)-directions the half-symmetrized bracket
    nabla_{j(b)} b' = (1/2) q[j(b), j(b')]."""
    sp = splitting
    d, m, r = sp.pair.dim, sp.m, sp.r
    gamma = [[[Fraction(0)] * r for _ in range(r)] for _ in range(d)]
    for u in range(d):
        for b in range(r):
            for k, c in sp.bott(u, b).items():
                gamma[u][b][k] = c if u < m else Fraction(c, 2)
    return Connection(sp, gamma)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differentials over the subalgebra A

def a_form_algebra(pair):
    """Exterior algebra on the dual of A (odd generators alpha_s)."""
    return WordAlgebra((pair.dim_a,), 0, 0)


def ce_differential(splitting, action, x):
    """CE differential on Vec elements keyed by (A-form word, coefkey).

    action(s, coefkey) gives the A-basis action a_s . (coefkey) as a Vec
    over coefficient keys.  d(w (x) m) = d_A(w) (x) m + sum_s alpha_s ^ w
    (x) a_s . m, where d_A(alpha_s) comes from the A structure constants.
    """
    sp = splitting
    fa, d_a = sp.ce_base
    out = on_first(d_a, x)
    for (fw, ck), coef in x.items():
        for s in range(sp.m):
            acted = action(s, ck)
            if acted:
                alpha = Vec({fa.odd_word(0, s): Fraction(1)})
                out += tensor_product(
                    1, [fa.mul(alpha, Vec({fw: coef})), acted])
    return out


def bott_action_on_lambda_b(splitting):
    """A-action on the exterior powers of B (coefficient keys are strictly
    increasing tuples of B-frame indices), extended as a derivation."""
    sp = splitting

    def action(s, ck):
        out = Vec()
        for t, b in enumerate(ck):
            for k, c in sp.bott(s, b).items():
                newk = ck[:t] + (k,) + ck[t + 1:]
                sign, sorted_ = sort_sign(newk)
                if sign == 0:
                    continue
                out.iadd_term(sorted_, c * sign)
        return out

    return action


def d_a_bott(splitting, x):
    """CE differential with coefficients in exterior powers of B under the
    canonical flat A-action."""
    return ce_differential(splitting, bott_action_on_lambda_b(splitting), x)


# ---------------------------------------------------------------------------
# JSON pair specifications

def _entry(obj, key, kind=object, default=None):
    """obj[key] of a JSON object, checked to be a `kind`; a missing key
    gives the default, or SpecError when there is none."""
    if not isinstance(obj, dict):
        raise SpecError("expected a JSON object, got %.60r" % (obj,))
    v = obj.get(key)
    if v is None:
        if default is None:
            raise SpecError("missing key %r" % key)
        return default
    if not isinstance(v, kind):
        raise SpecError("%r must be a JSON %s" % (
            key, {list: "array", str: "string"}.get(kind, "object")))
    return v


def _number(kind, v):
    """kind(v) for kind int or Fraction, read from a JSON integer or a
    string such as "3" or "1/2"; anything else, a float or a boolean
    included, is a SpecError, since only those two read exactly."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return kind(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError("%r is not %s" % (
        v, "an integer" if kind is int else "a rational number"))


def _array(v, shape):
    """Nested JSON arrays of the given shape, entries read as Fractions."""
    if not shape:
        return _number(Fraction, v)
    if not isinstance(v, list) or len(v) != shape[0]:
        raise SpecError("expected an array of length %d, got %.60r"
                        % (shape[0], v))
    return [_array(x, shape[1:]) for x in v]


def parse_pair_spec(d):
    """Build (pair, splitting, connection) from a parsed JSON dict.

    Omitted splitting defaults to the reference complement; omitted
    connection to the canonical torsion-free extension.  The connection
    array, when given, is indexed in the adapted frame: [l][b][k] with l
    running over (A-basis..., j(d_k)...).  A spec that cannot be read
    raises SpecError; one that reads but is not a Lie pair, PairError.
    """
    dim = _number(int, _entry(d, "dimL"))
    if dim < 0:
        raise SpecError("dimL must not be negative")
    basis = _entry(d, "basis", list, [])
    if not all(isinstance(label, str) for label in basis):
        raise SpecError("'basis' labels must be JSON strings")
    if basis and len(basis) != dim:
        raise SpecError("basis has %d labels but dimL is %d"
                        % (len(basis), dim))
    # an entry given twice is refused, not overwritten: [x_i, x_j] and
    # [x_j, x_i] may both be given, and LiePair checks that they agree
    brackets = {}
    for entry in _entry(d, "brackets", list, []):
        i, j = (_number(int, _entry(entry, n)) for n in "ij")
        if (i, j) in brackets:
            raise SpecError("bracket (%d, %d) is given twice" % (i, j))
        coeffs = brackets[(i, j)] = {}
        for k, v in _entry(entry, "coeffs", dict, {}).items():
            k = _number(int, k)
            if k in coeffs:
                raise SpecError("coefficient %d of bracket (%d, %d) is "
                                "given twice" % (k, i, j))
            coeffs[k] = _number(Fraction, v)
    pair = LiePair(dim, [_number(int, i)
                         for i in _entry(d, "aIndices", list)],
                   brackets, basis=basis,
                   name=_entry(d, "name", str, ""))
    if "dimA" in d and _number(int, d["dimA"]) != pair.dim_a:
        raise PairError("dimA=%s does not match aIndices" % d["dimA"])
    jmatrix = d.get("splitting")
    if jmatrix is not None:
        jmatrix = _array(jmatrix, (dim, pair.rank))
    splitting = Splitting(pair, jmatrix)
    if "connection" in d:
        conn = Connection(splitting, _array(d["connection"],
                                            (dim, pair.rank, pair.rank)))
        ok, witness = conn.extends_bott()
        if not ok:
            raise PairError("connection does not extend the canonical "
                            "A-action at %r" % (witness,))
        ok, witness = conn.is_torsion_free()
        if not ok:
            raise PairError("connection has torsion at %r" % (witness,))
    else:
        conn = default_connection(splitting)
    return pair, splitting, conn
