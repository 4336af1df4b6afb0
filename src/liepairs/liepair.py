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

from .core import Vec, WordAlgebra, mat_inv, mat_vec, sort_sign


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
            cur = self._c.setdefault((i, j), {})
            for k, v in coeffs.items():
                v = Fraction(v)
                if (k in cur and cur[k] != v) or not (0 <= k < dim):
                    raise PairError("inconsistent bracket entry (%d,%d,%d)"
                                    % (i, j, k))
                if v != 0:
                    cur[k] = v
        self._validate()

    # -- brackets ----------------------------------------------------------

    def bracket_basis(self, i, j):
        """[x_i, x_j] as {k: Fraction} in the original basis."""
        if i == j:
            return {}
        if i < j:
            return dict(self._c.get((i, j), {}))
        return {k: -v for k, v in self._c.get((j, i), {}).items()}

    def bracket(self, x, y):
        """Bracket of coordinate vectors (length-dim sequences)."""
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += xi * yj * c
        return out

    def _validate(self):
        d = self.dim
        # Jacobi identity on all basis triples
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc = [Fraction(0)] * d
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket_basis(b, c)
                        ei = [Fraction(int(t == a)) for t in range(d)]
                        term = self.bracket(ei, [inner.get(t, Fraction(0))
                                                 for t in range(d)])
                        for t in range(d):
                            acc[t] += term[t]
                    if any(v != 0 for v in acc):
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

    # -- canonical quotient ------------------------------------------------

    def q_coords(self, x):
        """Projection L -> B in the canonical frame (reference complement)."""
        return [Fraction(x[c]) for c in self.comp]


class Splitting:
    """A section j: B -> L of q, plus the data derived from it.

    j is a dim x rank matrix whose columns are j(d_k) in original
    coordinates; the default takes the reference complement itself.
    The adapted basis is (A-basis..., j(d_0), ..., j(d_{r-1})), and all
    downstream operators use adapted indices 0..dim-1 (A part first).
    """

    def __init__(self, pair, jmatrix=None):
        self.pair = pair
        d, r, m = pair.dim, pair.rank, pair.dim_a
        if jmatrix is None:
            jmatrix = [[Fraction(int(i == pair.comp[k])) for k in range(r)]
                       for i in range(d)]
        self.j = [[Fraction(v) for v in row] for row in jmatrix]
        # splitting axiom: q(j(d_k)) = d_k
        for k in range(r):
            col = [self.j[i][k] for i in range(d)]
            if pair.q_coords(col) != [Fraction(int(t == k)) for t in range(r)]:
                raise PairError("splitting axiom q(j(b)) = b fails at k=%d" % k)
        # adapted basis columns in original coordinates
        self.adapted = []
        for a in pair.a_indices:
            self.adapted.append([Fraction(int(i == a)) for i in range(d)])
        for k in range(r):
            self.adapted.append([self.j[i][k] for i in range(d)])
        # original -> adapted coordinate change
        self._to_adapted = mat_inv([[self.adapted[u][i] for u in range(d)]
                                    for i in range(d)])
        # adapted structure constants
        self.struct = {}
        for u in range(d):
            for v in range(u + 1, d):
                br = pair.bracket(self.adapted[u], self.adapted[v])
                coords = mat_vec(self._to_adapted, br)
                entry = {w: c for w, c in enumerate(coords) if c != 0}
                if entry:
                    self.struct[(u, v)] = entry
        self.m = m
        self.r = r

    @cached_property
    def ce_base(self):
        """The A-form algebra and d_A on its generators, d alpha_w =
        -sum_{u<v} c^w_{uv} alpha_u ^ alpha_v, for ce_differential."""
        fa = a_form_algebra(self.pair)
        d_gen = {}
        for u in range(self.m):
            for v in range(u + 1, self.m):
                for w, c in self.struct_const(u, v).items():
                    img = d_gen.setdefault((0, w), Vec())
                    img.iadd_term(fa.make_word([(u, v)], ()), -c)
        return fa, d_gen

    def struct_const(self, u, v):
        """[E_u, E_v] in adapted coordinates, as {w: Fraction}."""
        if u == v:
            return {}
        if u < v:
            return dict(self.struct.get((u, v), {}))
        return {w: -c for w, c in self.struct.get((v, u), {}).items()}

    def bott(self, s, k):
        """Canonical flat A-action on B: q[a_s, j(d_k)], as {B-index: coef}."""
        br = self.pair.bracket(self.adapted[s], self.adapted[self.m + k])
        return {t: c for t, c in enumerate(self.pair.q_coords(br)) if c != 0}

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
        out = Vec()
        for b, c in bvec.items():
            out.iadd_scaled(c, self.nabla(l, b))
        return out

    def extends_bott(self):
        sp = self.splitting
        for s in range(sp.m):
            for b in range(sp.r):
                if self.nabla(s, b) != sp.bott(s, b):
                    return False, (s, b)
        return True, None

    def torsion(self, u, v):
        """T(E_u, E_v) = nabla_u q(E_v) - nabla_v q(E_u) - q[E_u, E_v]."""
        sp = self.splitting
        out = self.nabla_vec(u, sp.q_of_adapted(v))
        out -= self.nabla_vec(v, sp.q_of_adapted(u))
        for w, c in sp.struct_const(u, v).items():
            out.iadd_scaled(-c, Vec(sp.q_of_adapted(w)))
        return out

    def is_torsion_free(self):
        d = self.splitting.pair.dim
        for u in range(d):
            for v in range(u + 1, d):
                if self.torsion(u, v):
                    return False, (u, v)
        return True, None


def default_connection(splitting):
    """Torsion-free extension of the canonical flat A-action: on A-directions
    it is that action, on j(B)-directions the half-symmetrized bracket
    nabla_{j(b)} b' = (1/2) q[j(b), j(b')]."""
    sp = splitting
    d, m, r = sp.pair.dim, sp.m, sp.r
    gamma = [[[Fraction(0)] * r for _ in range(r)] for _ in range(d)]
    for s in range(m):
        for b in range(r):
            for k, c in sp.bott(s, b).items():
                gamma[s][b][k] = c
    for kk in range(r):
        for b in range(r):
            br = sp.pair.bracket(sp.adapted[m + kk], sp.adapted[m + b])
            for k, c in enumerate(sp.pair.q_coords(br)):
                gamma[m + kk][b][k] = Fraction(c, 2)
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
    fa, d_gen = sp.ce_base
    out = Vec(truncated=x.truncated)
    for (fw, ck), coef in x.items():
        dfw = fa.derive(d_gen, 1, Vec({fw: coef}))
        for w2, c2 in dfw.items():
            out.iadd_term((w2, ck), c2)
        for s in range(sp.m):
            acted = action(s, ck)
            if not acted:
                continue
            alpha = Vec({fa.odd_word(0, s): Fraction(1)})
            wedged = fa.mul(alpha, Vec({fw: coef}))
            for w2, c2 in wedged.items():
                for ck2, c3 in acted.items():
                    out.iadd_term((w2, ck2), c2 * c3)
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
            key, "array" if kind is list else "object"))
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
    if basis and len(basis) != dim:
        raise SpecError("basis has %d labels but dimL is %d"
                        % (len(basis), dim))
    brackets = {}
    for entry in _entry(d, "brackets", list, []):
        i, j = (_number(int, _entry(entry, n)) for n in "ij")
        brackets[(i, j)] = {
            _number(int, k): _number(Fraction, v)
            for k, v in _entry(entry, "coeffs", dict, {}).items()}
    pair = LiePair(dim, [_number(int, i)
                         for i in _entry(d, "aIndices", list)],
                   brackets, basis=basis,
                   name=d.get("name", ""))
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
