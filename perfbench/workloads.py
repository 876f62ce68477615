"""The four workloads: inputs from the seed, one timed pass, output checks.

A pass is a fixed amount of work.  ``run.py`` repeats passes with fresh
inputs until the run's seconds are spent; each pass is timed on its own and
its outputs are checked after the clock stops.  The checks are derived
apart from the program: exact loops over raw tensors written here, closed
forms, and hand-derived values (see README.md).

Program functions are always looked up through their module at call time
(``self.m.algebra.change_basis``), so that an installed ``Tracer`` sees
every call.
"""

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

RECOGNIZE_ROUNDS = 10   # rounds per recognize pass
LAWS_ROUNDS = 4         # rounds per laws pass
CLASSIFIED = ("abelian2", "abelian3", "h3", "abelian4", "h3+K",
              "abelian5", "h3+K2", "L5", "h5")
# Fingerprints (dim, derived dim, annihilator dim, cube dim) read off the
# product tables by hand: derived = span of the products, annihilator =
# the centre, and every entry but free3 is 2-step nilpotent (cube 0).
FINGERPRINTS = {
    "abelian2": (2, 0, 2, 0), "abelian3": (3, 0, 3, 0), "h3": (3, 1, 1, 0),
    "abelian4": (4, 0, 4, 0), "h3+K": (4, 1, 2, 0), "abelian5": (5, 0, 5, 0),
    "h3+K2": (5, 1, 3, 0), "L5": (5, 2, 2, 0), "h5": (5, 1, 1, 0),
    "n6": (6, 3, 3, 0), "free3": (7, 4, 1, 1),
}


def modules():
    """The acaa modules, reached through sys.modules (``acaa.catalog`` as an
    attribute is the function ``catalog``)."""
    import acaa  # noqa: F401  (loads every submodule)

    names = ("algebra", "catalog", "cohomology", "fields", "free", "linalg",
             "reps", "serialize")
    return SimpleNamespace(**{n: sys.modules[f"acaa.{n}"] for n in names})


def pass_rng(workload, seed, index):
    # A str seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass
class Pass:
    """What one pass did: seconds per op, timed wall, failures and errors."""

    ops: list
    wall: float
    failed: int = 0
    errors: list = field(default_factory=list)
    rss_mb: float = 0.0                          # peak RSS of the pass's children
    traces: list = field(default_factory=list)   # tracer JSON, one per process
    compute: list = field(default_factory=list)  # cli: (CLI-reported ms, wall s) per op


def _int(x):
    if x.denominator != 1:
        raise ValueError(f"expected an integer entry, got {x}")
    return x.numerator


def _fingerprint_free(n):
    # free_n: degrees (n, C(n,2), C(n,3)); derived = degrees 2 and 3, and
    # for n >= 3 both the annihilator and the cube are exactly degree 3.
    return (n + comb(n, 2) + comb(n, 3), comb(n, 2) + comb(n, 3), comb(n, 3), comb(n, 3))


# --- recognize ---------------------------------------------------------------

class Recognize:
    """Each round gives each of the nine classified entries (dims 2-5, over
    Q) a fresh random invertible basis change, then runs change_basis and
    recognize.  One op is one round."""

    name = "recognize"

    def __init__(self, m, seed):
        self.m, self.seed = m, seed
        self.entries = [m.catalog.entry(n) for n in CLASSIFIED]

    def inputs(self, index):
        rng = pass_rng(self.name, self.seed, index)
        Q = self.m.fields.Q
        return [[self.m.linalg.random_invertible(Q, e.algebra.dim, rng) for e in self.entries]
                for _ in range(RECOGNIZE_ROUNDS)]

    def run_pass(self, rounds):
        change_basis = self.m.algebra.change_basis
        recognize = self.m.catalog.recognize
        ops, outputs = [], []
        start = time.perf_counter()
        for mats in rounds:
            t0 = time.perf_counter()
            out = []
            for e, P in zip(self.entries, mats):
                B = change_basis(e.algebra, P)
                out.append((B, recognize(B)))
            ops.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - start
        errors = []
        for mats, out in zip(rounds, outputs):
            for e, P, (B, name) in zip(self.entries, mats, out):
                if name != e.name:
                    errors.append(f"recognize: {e.name} recognized as {name}")
                if not self._basis_change_holds(e.algebra, P, B):
                    errors.append(f"recognize: change_basis of {e.name} breaks the product")
        return Pass(ops, wall, errors=errors)

    @staticmethod
    def _basis_change_holds(A, P, B):
        """(P e_a) *_A (P e_b) = P (e_a *_B e_b) for all a, b, in exact
        arithmetic over the raw tensors (P and the entry are integral)."""
        d = A.dim
        p = [[_int(x) for x in row] for row in P.entries]
        c = [[[_int(x) for x in row] for row in plane] for plane in A.tensor]
        # t[i][b][k] = sum_j P[j][b] c[i][j][k]
        t = [[[sum(p[j][b] * c[i][j][k] for j in range(d) if c[i][j][k])
               for k in range(d)] for b in range(d)] for i in range(d)]
        for a in range(d):
            for b in range(d):
                lhs = [sum(p[i][a] * t[i][b][k] for i in range(d)) for k in range(d)]
                row = B.tensor[a][b]
                rhs = [sum(p[k][m] * row[m] for m in range(d) if row[m]) for k in range(d)]
                if lhs != rhs:
                    return False
        return True


# --- laws --------------------------------------------------------------------

def signed_copy(m, A, rng):
    """A under a random signed permutation e'_a = s_a e_perm(a) of its basis,
    built as a new Algebra (sparse, and sharing no object with A)."""
    d = A.dim
    perm = list(range(d))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(d)]
    inv = [0] * d
    for a, pa in enumerate(perm):
        inv[pa] = a
    zero = A.field.zero
    t = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            for k, c in enumerate(A.tensor[perm[a]][perm[b]]):
                if c:
                    t[a][b][inv[k]] = c if sign[a] * sign[b] * sign[inv[k]] > 0 else -c
    return m.algebra.Algebra(A.field, d, t, symmetry=A.symmetry)


def _ints(rng, n):
    return [rng.randint(-3, 3) for _ in range(n)]


def random_skew2(F, d, rng):
    zero = (F.zero,) * d
    phi = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            vec = tuple(F.from_int(v) for v in _ints(rng, d))
            phi[i][j] = vec
            phi[j][i] = tuple(-v for v in vec)
    return tuple(tuple(row) for row in phi)


def random_sym12(F, d, rng):
    psi = {}
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                psi[i, j, k] = psi[j, i, k] = tuple(F.from_int(v) for v in _ints(rng, d))
    return tuple(tuple(tuple(psi[i, j, k] for k in range(d)) for j in range(d))
                 for i in range(d))


def _cells(t):
    """Flatten a nested tuple tensor into its scalars."""
    if isinstance(t, tuple):
        for x in t:
            yield from _cells(x)
    else:
        yield t


class Laws:
    """Each round takes the 11 catalog entries and free3 over F_5, each as a
    fresh signed-permutation copy, and runs d2_after_d1 on a random
    endomorphism, delta2 then is_sym12 and cyclic_sum_witness on a random
    skew cochain, and check_ad_identities; then delta3 on a copy of h5.
    One op is one round."""

    name = "laws"

    def __init__(self, m, seed):
        self.m, self.seed = m, seed
        self.bases = [e.algebra for e in m.catalog.all_entries()]
        self.bases.append(m.free.free_acaa(3, m.fields.PrimeField(5)).algebra)
        self.h5 = m.catalog.entry("h5").algebra

    def inputs(self, index):
        rng = pass_rng(self.name, self.seed, index)
        Matrix = self.m.linalg.Matrix
        rounds = []
        for _ in range(LAWS_ROUNDS):
            items = []
            for A in self.bases:
                B = signed_copy(self.m, A, rng)
                F, d = B.field, B.dim
                f = Matrix(F, [[F.from_int(v) for v in _ints(rng, d)] for _ in range(d)])
                items.append((B, f, random_skew2(F, d, rng)))
            H = signed_copy(self.m, self.h5, rng)
            psi, psi2 = (random_sym12(H.field, H.dim, rng) for _ in range(2))
            rounds.append((items, H, psi, psi2))
        return rounds

    def run_pass(self, rounds):
        coh, reps = self.m.cohomology, self.m.reps
        ops, outputs = [], []
        start = time.perf_counter()
        for items, H, psi, _ in rounds:
            t0 = time.perf_counter()
            out = []
            for B, f, phi in items:
                dd = coh.d2_after_d1(B, f)
                psi_b = coh.delta2(B, phi)
                out.append((dd, psi_b, coh.is_sym12(B, psi_b),
                            coh.cyclic_sum_witness(B, psi_b), reps.check_ad_identities(B)))
            omega = coh.delta3(H, psi)
            ops.append(time.perf_counter() - t0)
            outputs.append((out, omega))
        wall = time.perf_counter() - start
        errors = []
        for (items, H, psi, psi2), (out, omega) in zip(rounds, outputs):
            for (B, _, _), (dd, psi_b, sym, cyc, ad) in zip(items, out):
                errors.extend(f"laws: {B.field} dim {B.dim}: {msg}"
                              for msg in self._check_copy(dd, psi_b, sym, cyc, ad))
            if not self._delta3_linear(H, psi, psi2, omega):
                errors.append("laws: delta3 is not additive")
        return Pass(ops, wall, errors=errors)

    @staticmethod
    def _check_copy(dd, psi, sym, cyc, ad):
        d = len(psi)
        r = range(d)
        if any(_cells(dd)):
            yield "d2(d1 f) is not zero"
        if sym is not True or any(psi[i][j][k] != psi[j][i][k] for i in r for j in r for k in r):
            yield "delta2 is not symmetric in its first two slots"
        if cyc is not None or any(a + b + c for i in r for j in r for k in r for a, b, c in
                                  zip(psi[i][j][k], psi[j][k][i], psi[k][i][j])):
            yield "the cyclic sum of delta2 is not zero"
        if ad is not None:
            yield f"check_ad_identities reports {ad}"

    def _delta3_linear(self, H, psi, psi2, omega):
        delta3 = self.m.cohomology.delta3
        both = tuple(tuple(tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(r1, r2))
                           for r1, r2 in zip(p1, p2)) for p1, p2 in zip(psi, psi2))
        total = [a + b for a, b in zip(_cells(omega), _cells(delta3(H, psi2)))]
        return list(_cells(delta3(H, both))) == total

    def control(self):
        """Negative control: d2 o d1 must be nonzero on the cross-product Lie
        algebra.  The kernel of f -> d2(d1 f) there is the skew matrices, so
        an f with a nonzero diagonal lies outside it."""
        m = self.m
        Q = m.fields.Q
        X = m.algebra.Algebra.from_products(
            Q, 3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, skew=True)
        rng = pass_rng("laws-control", self.seed, 0)
        f = m.linalg.Matrix(Q, [[Q.from_int(rng.randint(1, 3) if i == j else rng.randint(-3, 3))
                                 for j in range(3)] for i in range(3)])
        if not any(_cells(m.cohomology.d2_after_d1(X, f))):
            return ["laws: negative control: d2(d1 f) vanished on the cross-product algebra"]
        return []


# --- oracle ------------------------------------------------------------------

ENUMERATIONS = ((2, 3), (3, 3), (3, 5))
H3_PRIMES = (3, 5)


def oracle_pass(m):
    """One cold pass of the mod-p oracle; run in a fresh child process."""
    catalog, reps = m.catalog, m.reps
    results = []
    start = time.perf_counter()
    for dim, p in ENUMERATIONS:
        results.append(list(catalog.enumerate_finite(dim, p, jobs=1)))
    for p in H3_PRIMES:
        results.append(reps.h3_faithfulness_search(p, 3, jobs=1))
    return time.perf_counter() - start, results


def gl_order(n, p):
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    return order


def check_oracle(results):
    want = [[1, 1], [27, 2], [125, 2], None, None]   # acaa_count(2,p) = 1; (3,p) = p^3
    if results != want:
        return [f"oracle: results {results}, expected {want}"]
    return []


def _is_omega_z(t, p):
    """t = (bracket of each pair (0,1), (0,2), (1,2)) is omega (x) z with z
    spanning the radical of the nonzero skew form omega."""
    rows = [t[0:3], t[3:6], t[6:9]]
    z = next(r for r in rows if any(v % p for v in r))
    zi = next(i for i, v in enumerate(z) if v % p)
    inv = pow(z[zi], p - 2, p)
    omega = [r[zi] * inv % p for r in rows]
    if any((r[k] - w * z[k]) % p for r, w in zip(rows, omega) for k in range(3)):
        return False
    w = {(0, 1): omega[0], (0, 2): omega[1], (1, 2): omega[2]}

    def form(i, j):
        if i == j:
            return 0
        return w[i, j] if i < j else -w[j, i]

    return all(sum(form(i, j) * z[j] for j in range(3)) % p == 0 for i in range(3))


def check_oracle_trace(trace):
    """Closed forms the traced counters must meet."""
    errors = []
    o = trace["oracle"]
    for dim, p in ENUMERATIONS:
        key = f"{dim},{p}"
        pairs = comb(dim, 2)
        cand, surv = o["scan"].get(key, [0, 0])
        if "catalog._acaa_mask" not in trace["absent"]:
            if cand != p ** (dim * pairs):
                errors.append(f"oracle: scanned {cand} tensors for {key}")
            want = 1 if dim == 2 else p ** 3
            if surv != want:
                errors.append(f"oracle: {surv} survivors for {key}, expected {want}")
            tensors = o["survivors"].get(key, [])
            nonzero = [t for t in tensors if any(t)]
            if len(set(map(tuple, nonzero))) != want - 1 or not all(
                    _is_omega_z(t, p) for t in nonzero):
                errors.append(f"oracle: survivors for {key} are not the omega (x) z tensors")
        if "catalog._gl_group" not in trace["absent"]:
            order = o["groups"].get(key, [0])[0]
            if order != gl_order(dim, p):
                errors.append(f"oracle: |GL({dim},{p})| read {order}")
            orbits = o["orbits"].get(key, [])
            want_orbits = [1] if dim == 2 else [1, p ** 3 - 1]
            if "catalog._act_all" not in trace["absent"] and (
                    sorted(orbits) != want_orbits or sum(orbits) != surv
                    or any(order % s for s in orbits)):
                errors.append(f"oracle: orbit sizes {orbits} for {key}")
    return errors


# --- cli ---------------------------------------------------------------------

def _series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b[:n - 1 - i]):
            out[i + j + 1] += x * y
    return out


def _series_compose(f, g, n):
    """f(g(t)) for coefficient lists c_1..c_n (no constant term)."""
    out = [Fraction(0)] * n
    power = list(g)
    for k in range(n):
        out = [o + f[k] * q for o, q in zip(out, power)]
        power = _series_mul(power, g, n)
    return out


def _gen_series(dims, n):
    return [Fraction((-1) ** k * (dims[k - 1] if k <= len(dims) else 0), factorial(k))
            for k in range(1, n + 1)]


def _perm_sign(seq):
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


@dataclass
class CliOp:
    argv: list
    check: object          # (exit code, report dict or None) -> error message or None
    bad_input: bool = False


def _expect(rc, status=None, **payload):
    def check(code, report):
        if code != rc:
            return f"exit {code}, expected {rc}"
        if status is not None and (report is None or report["status"] != status):
            return f"status {report and report['status']}, expected {status}"
        for key, want in payload.items():
            got = report["payload"].get(key)
            if got != want:
                return f"{key} = {got!r}, expected {want!r}"
        return None
    return check


def _expect_witness(witness):
    def check(code, report):
        base = _expect(1, "fails")(code, report)
        if base is not None:
            return base
        return None if report["witness"] == witness else f"witness {report['witness']}"
    return check


def _check_inverse(code, report):
    base = _expect(0, "value")(code, report)
    if base is not None:
        return base
    u = [Fraction(c) for c in report["payload"]["coeffs"]]
    g = _gen_series([1, 1, 1], len(u))
    t = [Fraction(1)] + [Fraction(0)] * (len(u) - 1)
    return None if len(u) == 6 and _series_compose(g, u, 6) == t else "g(u(t)) != t"


def _check_koszul(code, report):
    base = _expect(0, "value")(code, report)
    if base is not None:
        return base
    n = 6
    g_op, g_dual = _gen_series([1, 1], n), _gen_series([1, 1, 1], n)   # roles swapped
    minus_t = [Fraction(-1)] + [Fraction(0)] * (n - 1)
    inner = [-c for c in _series_compose(g_op, minus_t, n)]
    res = _series_compose(g_dual, inner, n)
    res[0] -= 1
    pay = report["payload"]
    if [Fraction(c) for c in pay["residual"]] != res:
        return f"residual {pay['residual']}"
    if pay["koszul_consistent"] != (not any(res)):
        return "koszul_consistent disagrees with the residual"
    return None


def _check_catalog(code, report):
    base = _expect(0, "value")(code, report)
    if base is not None:
        return base
    got = {e["name"]: tuple(e["fingerprint"]) for e in report["payload"]["entries"]}
    return None if got == FINGERPRINTS else f"catalog listing {got}"


def _check_dual(code, report):
    base = _expect(0, "holds", forces_nilpotency=True)(code, report)
    if base is not None:
        return base
    perms = ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2))
    diag = [_perm_sign(s) for s in perms] + [-_perm_sign(s) for s in perms]
    # det [[1,1,0],[0,1,1],[1,0,1]] = 2, so the cyclic relations have rank 3
    pay = report["payload"]
    if pay["pairing_diagonal"] != [str(v) for v in diag] or pay["cyclic_relation_rank"] != 3:
        return f"dual-check payload {pay}"
    return None


BC_ENTRIES = ("h3", "h3+K", "L5", "h5")


class Cli:
    """One op is one ``python -m acaa.cli`` invocation, run to completion;
    a pass is one round of the fixed op list."""

    name = "cli"

    def __init__(self, m, seed, workdir):
        self.m, self.seed, self.dir = m, seed, workdir
        os.makedirs(workdir, exist_ok=True)
        self.write_inputs()
        self.ops = self.op_list()

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_inputs(self):
        m = self.m
        save = m.serialize.save_algebra
        for n in (3, 4):
            save(m.free.free_acaa(n).algebra, self.path(f"free{n}.json"))
        rng = pass_rng(self.name, self.seed, 0)
        for name in BC_ENTRIES:
            A = m.catalog.entry(name).algebra
            P = m.linalg.random_invertible(m.fields.Q, A.dim, rng)
            save(m.algebra.change_basis(A, P), self.path(f"bc-{name}.json"))
        # Inputs that must be refused with exit 2 (no "field"; non-list products).
        with open(self.path("nofield.json"), "w") as fh:
            json.dump({"dim": 3, "symmetry": "skew", "products": []}, fh)
        with open(self.path("products5.json"), "w") as fh:
            json.dump({"field": {"type": "Q"}, "dim": 3, "products": 5}, fh)

    def op_list(self):
        f3 = self.path("f3.json")
        x123 = ["X1", "X2", "X3"]
        ops = [
            CliOp(["catalog"], _check_catalog),
            CliOp(["free", "--generators", "3", "--out", f3],
                  _expect(0, "value", dim=7, graded_dims=[3, 3, 1])),
            CliOp(["check", "--identity", "acaa", f3], _expect(0, "holds")),
            CliOp(["check", "--identity", "jacobi", f3], _expect_witness(x123)),
            CliOp(["check", "--identity", "custom", "--coeffs",
                   "0,0,0,0,0,0,1,0,0,0,-1,0", "h5"], _expect(0, "holds")),
            CliOp(["fingerprint", "free3"],
                  _expect(0, "value", fingerprint=list(_fingerprint_free(3)))),
            CliOp(["recognize", "h5"], _expect(0, "value", name="h5")),
            # ad e1 on h3 ([e1, e2] = e3): one nonzero entry, row e3 column e2
            CliOp(["ad", "h3", "--element", "1,0,0"],
                  _expect(0, "value", matrix=[["0", "0", "0"], ["0", "0", "0"],
                                              ["0", "1", "0"]], rank=1, kernel_dim=2)),
            # X123 is central, so the adjoint representation is not faithful
            CliOp(["rep-check", "--adjoint", "free3"],
                  _expect(0, "holds", faithful=False, target_dim=7)),
            CliOp(["cohomology", "--check", "d2d1", "--algebra", "h5", "--samples", "50",
                   "--seed", "7"], _expect(0, "holds")),
            CliOp(["series", "inverse", "--order", "6"], _check_inverse),
            CliOp(["series", "koszul", "--order", "6", "--swap-roles"], _check_koszul),
            CliOp(["operad", "dims"], _expect(0, "value", acaa=[1, 1, 1, 0, 0, 0, 0, 0],
                                              dual=[1, 1, 0, 0, 0, 0, 0, 0])),
            CliOp(["operad", "dual-check"], _check_dual),
            CliOp(["enumerate", "--dim", "3", "--p", "3"],
                  _expect(0, "value", acaa_count=27, iso_classes=2)),
            CliOp(["rep-check", "--h3-search", "--p", "3"],
                  _expect(0, "value", search="exhausted")),
            CliOp(["fingerprint", self.path("free4.json")],
                  _expect(0, "value", fingerprint=list(_fingerprint_free(4)))),
            CliOp(["check", "--identity", "acaa", self.path("free4.json")], _expect(0, "holds")),
            CliOp(["check", "--identity", "jacobi", self.path("free4.json")],
                  _expect_witness(x123)),
        ]
        for name in BC_ENTRIES:
            ops.append(CliOp(["recognize", self.path(f"bc-{name}.json")],
                             _expect(0, "value", name=name)))
        ops += [
            CliOp(["fingerprint", self.path("bc-L5.json")],
                  _expect(0, "value", fingerprint=list(FINGERPRINTS["L5"]))),
            CliOp(["check", "--identity", "acaa", self.path("bc-h5.json")], _expect(0, "holds")),
            CliOp(["check", "--identity", "acaa", self.path("nofield.json")], None, True),
            CliOp(["fingerprint", self.path("products5.json")], None, True),
            CliOp(["cohomology", "--check", "d2d1", "--algebra", "h5", "--samples", "-3"],
                  None, True),
        ]
        for op in ops:
            op.argv = op.argv + ["--format", "json"]
        return ops


def check_cli_op(op, code, stdout, stderr):
    """None when the op met its expectation, else a message."""
    if op.bad_input:
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        if code == 2 and len(lines) == 1 and lines[0].startswith("error:"):
            return None
        return f"exit {code}, expected 2 with a one-line error"
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return "stdout is not JSON"
    return op.check(code, report)


def elapsed_ms(stderr):
    """The CLI's own ``elapsed: 0.123s`` line, in ms, or None."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("elapsed: ") and line.endswith("s"):
            return 1000 * float(line[len("elapsed: "):-1])
    return None
