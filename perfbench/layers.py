"""Per-layer tracing of the acaa package from outside the program.

A ``Tracer`` replaces chosen functions of the ``acaa`` modules by timing
wrappers while it is installed, and puts the originals back when it is
removed.  A function is replaced under every name it is bound to in any
``acaa`` module (``check_acaa`` lives in ``algebra`` and is imported into
``catalog``, ``cohomology``, ``reps``, ``cli`` and the package), because a
caller looks it up in its own module's namespace.  Modules are reached
through ``sys.modules``: ``acaa.catalog`` as an attribute resolves to the
function ``catalog``, not to the module.

A function that no longer exists is recorded as absent and the metrics
that depend on it read 0; nothing fails.  Times are wall seconds spent in
the outermost call of each wrapped function; counts are exact and repeat
from run to run on the same inputs.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _key(dim, p):
    return f"{dim},{p}"


def _after_random_matrix(tr, args, result):
    if tr.active["linalg.random_invertible"]:
        tr.counts["random_invertible_draws"] += 1


def _after_random_invertible(tr, args, result):
    tr.counts["random_invertible_calls"] += 1


def _after_rref(tr, args, result):
    rows = args[1]
    tr.counts["linalg.rref_calls"] += 1
    if rows:
        tr.counts["linalg.rref_entries"] += len(rows) * len(rows[0])


def _after_mul(tr, args, result):
    if type(args[1]) is type(args[0]):
        tr.counts["linalg.matmul_calls"] += 1


def _after_multiply_coords(tr, args, result):
    tr.counts["algebra.multiply_coords_calls"] += 1


def _after_check_acaa(tr, args, result):
    tensor = args[0].tensor
    tr.counts["algebra.tensor_nonzeros"] += sum(
        1 for plane in tensor for row in plane for c in row if c)


def _cochain_entries(power):
    def after(tr, args, result):
        tr.counts["cohomology.cochain_entries"] += args[0].dim ** power
    return after


def _delta2_timer(args):
    if args[0].field.characteristic:
        return "cohomology.delta2_fp_s"
    return "cohomology.delta2_s"


def _after_mask(tr, args, result):
    C, dim, p = args[0], args[1], args[2]
    survivors = C[result]
    scan = tr.oracle["scan"].setdefault(_key(dim, p), [0, 0])
    scan[0] += len(C)
    scan[1] += len(survivors)
    tr.oracle["survivors"].setdefault(_key(dim, p), []).extend(
        survivors.reshape(len(survivors), -1).tolist())


def _after_group(tr, args, result):
    dim, p = args[0], args[1]
    G, Ginv = result
    tr.oracle["groups"][_key(dim, p)] = [len(G), int(G.nbytes + Ginv.nbytes)]


def _after_act(tr, args, result):
    import numpy as np

    G, p, dim = args[0], args[4], args[5]
    tr.counts["catalog.group_actions"] += len(G)
    tr.oracle["orbits"].setdefault(_key(dim, p), []).append(int(len(np.unique(result))))


# (module, attribute, timer metric or function of the arguments, hook).
# A hook runs after a call returns; it never runs inside the timed span.
WRAPS = (
    ("acaa.linalg", "random_invertible", "linalg.random_invertible_s",
     _after_random_invertible),
    ("acaa.linalg", "random_matrix", None, _after_random_matrix),
    ("acaa.linalg", "Matrix.inverse", "linalg.inverse_s", None),
    ("acaa.linalg", "Matrix.rank", "linalg.rank_s", None),
    ("acaa.linalg", "span", "linalg.span_s", None),
    ("acaa.linalg", "_rref", None, _after_rref),
    ("acaa.linalg", "Matrix.__mul__", None, _after_mul),
    ("acaa.algebra", "change_basis", "algebra.change_basis_s", None),
    ("acaa.algebra", "check_acaa", "algebra.check_acaa_s", _after_check_acaa),
    ("acaa.algebra", "fingerprint", "algebra.fingerprint_s", None),
    ("acaa.algebra", "Algebra.multiply_coords", None, _after_multiply_coords),
    ("acaa.cohomology", "delta1", "cohomology.delta1_s", _cochain_entries(3)),
    ("acaa.cohomology", "delta2", _delta2_timer, _cochain_entries(4)),
    ("acaa.cohomology", "delta3", "cohomology.delta3_s", _cochain_entries(5)),
    ("acaa.cohomology", "cyclic_sum_witness", "cohomology.cyclic_sum_witness_s", None),
    ("acaa.reps", "check_ad_identities", "reps.check_ad_identities_s", None),
    ("acaa.reps", "h3_faithfulness_search", "reps.h3_search_s", None),
    ("acaa.catalog", "_acaa_mask", "catalog.scan_s", _after_mask),
    ("acaa.catalog", "_gl_group", "catalog.group_s", _after_group),
    ("acaa.catalog", "_act_all", "catalog.orbit_s", _after_act),
    ("acaa.serialize", "load_algebra", None, None),
)
# Functions whose every outermost call duration is kept, for a median per call.
PER_CALL = ("serialize.load_algebra",)

# Per-layer metric: (unit, the wrapped functions it depends on).
PER_LAYER = {
    "linalg.random_invertible_s": ("s", ("linalg.random_invertible",)),
    "linalg.random_invertible_redraws": ("count", ("linalg.random_invertible",
                                                   "linalg.random_matrix")),
    "linalg.inverse_s": ("s", ("linalg.Matrix.inverse",)),
    "linalg.rank_s": ("s", ("linalg.Matrix.rank",)),
    "linalg.span_s": ("s", ("linalg.span",)),
    "linalg.rref_calls": ("count", ("linalg._rref",)),
    "linalg.rref_entries": ("count", ("linalg._rref",)),
    "algebra.change_basis_s": ("s", ("algebra.change_basis",)),
    "algebra.check_acaa_s": ("s", ("algebra.check_acaa",)),
    "algebra.fingerprint_s": ("s", ("algebra.fingerprint",)),
    "algebra.multiply_coords_calls": ("count", ("algebra.Algebra.multiply_coords",)),
    "algebra.tensor_nonzeros": ("count", ("algebra.check_acaa",)),
    "cohomology.delta1_s": ("s", ("cohomology.delta1",)),
    "cohomology.delta2_s": ("s", ("cohomology.delta2",)),
    "cohomology.delta2_fp_s": ("s", ("cohomology.delta2",)),
    "cohomology.delta3_s": ("s", ("cohomology.delta3",)),
    "cohomology.cyclic_sum_witness_s": ("s", ("cohomology.cyclic_sum_witness",)),
    "cohomology.cochain_entries": ("count", ("cohomology.delta1", "cohomology.delta2",
                                             "cohomology.delta3")),
    "reps.check_ad_identities_s": ("s", ("reps.check_ad_identities",)),
    "linalg.matmul_calls": ("count", ("linalg.Matrix.__mul__",)),
    "catalog.scan_s": ("s", ("catalog._acaa_mask",)),
    "catalog.candidates": ("count", ("catalog._acaa_mask",)),
    "catalog.survivors": ("count", ("catalog._acaa_mask",)),
    "catalog.survivor_ratio": ("ratio", ("catalog._acaa_mask",)),
    "catalog.group_s": ("s", ("catalog._gl_group",)),
    "catalog.group_order": ("count", ("catalog._gl_group",)),
    "catalog.group_table_mb": ("MB", ("catalog._gl_group",)),
    "catalog.orbit_s": ("s", ("catalog._act_all",)),
    "catalog.group_actions": ("count", ("catalog._act_all",)),
    "catalog.actions_per_survivor": ("ratio", ("catalog._act_all", "catalog._acaa_mask")),
    "reps.h3_search_s": ("s", ("reps.h3_faithfulness_search",)),
    "cli.python_start_ms": ("ms", ()),
    "cli.import_ms": ("ms", ()),
    "cli.numpy_import_ms": ("ms", ()),
    "cli.compute_ms": ("ms", ()),
    "cli.startup_ms": ("ms", ()),
    "serialize.load_algebra_ms": ("ms", ("serialize.load_algebra",)),
    "trace.overhead_s": ("s", ()),
}


class Tracer:
    """Wraps the functions in WRAPS while installed (use it as a context)."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.oracle = {"scan": {}, "groups": {}, "orbits": {}, "survivors": {}}
        self.absent = set()
        self.active = defaultdict(int)
        self._undo = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "acaa" or name.startswith("acaa."))]
        for modname, attr, timer, hook in WRAPS:
            name = f"{modname[len('acaa.'):]}.{attr}"
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, timer, hook)
            if path:
                self._replace(owner, leaf, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, bound, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, timer, hook):
        active, seconds = self.active, self.seconds
        per_call = self.samples[name] if name in PER_CALL else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not active[name]
            active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                active[name] -= 1
                if outer and timer is not None:
                    seconds[timer if isinstance(timer, str) else timer(args)] += dt
                if outer and per_call is not None:
                    per_call.append(dt)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts),
                "samples": dict(self.samples), "oracle": self.oracle,
                "absent": sorted(self.absent)}


def merge(parts) -> dict:
    """Sum the JSON forms of several traces (one per child process)."""
    out = {"seconds": defaultdict(float), "counts": defaultdict(int),
           "samples": defaultdict(list), "absent": set(),
           "oracle": {"scan": {}, "groups": {}, "orbits": {}, "survivors": {}}}
    for part in parts:
        for key, v in part["seconds"].items():
            out["seconds"][key] += v
        for key, v in part["counts"].items():
            out["counts"][key] += v
        for key, v in part["samples"].items():
            out["samples"][key].extend(v)
        out["absent"].update(part["absent"])
        for section, table in part["oracle"].items():
            target = out["oracle"][section]
            for key, v in table.items():
                if section == "groups":
                    target[key] = v
                elif section == "scan":
                    old = target.setdefault(key, [0, 0])
                    old[0] += v[0]
                    old[1] += v[1]
                else:
                    target.setdefault(key, []).extend(v)
    return out


def combine(passes):
    """One trace from the merged traces of several traced passes over the
    same inputs: counts from the first (the rest must agree, else the
    second value is a message), seconds as the median per key."""
    first = passes[0]
    keys = {k for t in passes for k in t["seconds"]}
    out = dict(first, seconds={k: statistics.median(t["seconds"].get(k, 0.0) for t in passes)
                              for k in keys})
    out["samples"] = {k: [v for t in passes for v in t["samples"].get(k, [])]
                      for k in first["samples"]}
    for t in passes[1:]:
        if t["counts"] != first["counts"]:
            return out, "traced counts differ between two passes over the same inputs"
    return out, None


def per_layer(trace: dict, extra: dict):
    """Every per-layer metric from a merged trace plus the measured extras
    (the cli start-up figures and trace.overhead_s).  Returns
    (metrics, absent metric names)."""
    s, c, oracle = trace["seconds"], trace["counts"], trace["oracle"]
    scan = [sum(v[0] for v in oracle["scan"].values()),
            sum(v[1] for v in oracle["scan"].values())]
    groups = oracle["groups"].values()
    loads = trace["samples"].get("serialize.load_algebra", [])
    values = {
        "linalg.random_invertible_redraws": (c.get("random_invertible_draws", 0)
                                             - c.get("random_invertible_calls", 0)),
        "catalog.candidates": scan[0],
        "catalog.survivors": scan[1],
        "catalog.survivor_ratio": scan[1] / scan[0] if scan[0] else 0.0,
        "catalog.group_order": max((g[0] for g in groups), default=0),
        "catalog.group_table_mb": sum(g[1] for g in groups) / MB,
        "catalog.actions_per_survivor": (c.get("catalog.group_actions", 0) / scan[1]
                                         if scan[1] else 0.0),
        "serialize.load_algebra_ms": 1000 * statistics.median(loads) if loads else 0.0,
    }
    absent = []
    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = any(n in trace["absent"] for n in needs)
        if name == "linalg.random_invertible_redraws" and c.get(
                "random_invertible_calls") and not c.get("random_invertible_draws"):
            missing = True   # random_invertible no longer draws through random_matrix
        if missing:
            absent.append(name)
            value = 0
        elif name in extra:
            value = extra[name]
        elif name in values:
            value = values[name]
        elif unit == "s":
            value = s.get(name, 0.0)
        else:
            value = c.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
