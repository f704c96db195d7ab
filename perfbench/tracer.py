"""Per-layer tracing of hsangle from outside the library.

Each hook replaces one name in the module that calls it (for example
``random_lab.generate``, the name ``run_single_trial`` looks up) with a
wrapper that records a span around the original.  Nothing under ``src/``
changes: the patch lives only in this process and ``uninstall`` restores
every name.  A hook whose name no longer exists is skipped, so the layers a
later version drops report zero instead of breaking the benchmark.

Span names are ``<layer>.<what>``; the layer is the hsangle module the time
is charged to.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math

from spans import SpanRecorder, self_times

LAYERS = ("cli", "random_lab", "inequality_suite", "hs_geometry", "spectral", "matrix_core")


def _svd_key(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return (a.shape[-1], math.prod(a.shape[:-2]))


# (module, attribute, span name, key from the call, trace id from the call)
HOOKS = (
    ("hsangle.cli", "run_property_suite", "random_lab.suite", None, None),
    ("hsangle.random_lab", "run_single_trial", "random_lab.trial", None, lambda a, k: a[2]),
    ("hsangle.random_lab", "derive_seed", "random_lab.derive_seed", None, None),
    ("hsangle.random_lab", "generate", "random_lab.generate", lambda a, k: a[0].kind, None),
    ("hsangle.random_lab", "check", "inequality_suite.check", lambda a, k: a[0], None),
    ("hsangle.random_lab", "minimize", "random_lab.scan.polish", None, None),
    ("hsangle.random_lab", "abs_op", "spectral.abs_op", None, None),
    ("hsangle.random_lab", "abs_adjoint", "spectral.abs_adjoint", None, None),
    ("hsangle.inequality_suite", "digest", "matrix_core.digest", None, None),
    ("hsangle.inequality_suite", "abs_op", "spectral.abs_op", None, None),
    ("hsangle.inequality_suite", "abs_adjoint", "spectral.abs_adjoint", None, None),
    ("hsangle.inequality_suite", "hs_inner", "hs_geometry.hs_inner", None, None),
    ("hsangle.inequality_suite", "hs_norm", "hs_geometry.hs_norm", None, None),
    ("hsangle.inequality_suite", "cos_angle", "hs_geometry.cos_angle", None, None),
    ("hsangle.inequality_suite", "sin_angle", "hs_geometry.sin_angle", None, None),
    ("hsangle.spectral", "abs_op", "spectral.abs_op", None, None),
    ("hsangle.spectral", "adjoint", "matrix_core.adjoint", None, None),
    ("numpy.linalg", "svd", "spectral.svd", _svd_key, None),
)


def _wrap(fn, rec: SpanRecorder, name: str, key_fn, id_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.begin(
            name,
            key_fn(args, kwargs) if key_fn else None,
            id_fn(args, kwargs) if id_fn else None,
        )
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(i)

    return traced


class Tracer:
    """Installs the hooks into one recorder; use as a context manager."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list = []
        self._evals = itertools.count()

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        rec = self.rec
        for mod_name, attr, name, key_fn, id_fn in HOOKS:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                self._patch(mod, attr, _wrap(getattr(mod, attr), rec, name, key_fn, id_fn))
        core = importlib.import_module("hsangle.matrix_core")
        post_init = core.ComplexMatrix.__post_init__
        self._patch(core.ComplexMatrix, "__post_init__", _wrap(post_init, rec, "matrix_core.construct", None, None))
        lab = importlib.import_module("hsangle.random_lab")
        if hasattr(lab, "_ratio_for"):
            # One span per scan evaluation; its index is the trace id that
            # the spectral and construction spans below it share.
            ratio_for = lab._ratio_for
            evals = self._evals

            def traced_ratio_for(inequality_id):
                ratio = ratio_for(inequality_id)

                def traced_ratio(x, y):
                    i = rec.begin("random_lab.scan.ratio", None, next(evals))
                    try:
                        return ratio(x, y)
                    finally:
                        rec.finish(i)

                return traced_ratio

            self._patch(lab, "_ratio_for", traced_ratio_for)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(rec: SpanRecorder, ops: int, wall_ns: int, dims, kinds, ids) -> dict:
    """Per-layer numbers from a finished trace.

    ops is the number of end-to-end operations the trace covers (registry
    trials or scan evaluations); wall_ns is the wall time of the traced
    phase, including the benchmark's own work between calls.
    """
    selfs = self_times(rec)
    nl = len(rec.labels)
    cnt, tot, slf = [0] * nl, [0] * nl, [0] * nl
    for i, lid in enumerate(rec.label):
        cnt[lid] += 1
        tot[lid] += rec.end[i] - rec.start[i]
        slf[lid] += selfs[i]
    count: dict = {}
    total: dict = {}
    self_by_name: dict = {}
    by_key: dict = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for lid, (name, key) in enumerate(rec.labels):
        count[name] = count.get(name, 0) + cnt[lid]
        total[name] = total.get(name, 0) + tot[lid]
        self_by_name[name] = self_by_name.get(name, 0) + slf[lid]
        layer_self[_layer(name)] = layer_self.get(_layer(name), 0) + slf[lid]
        if key is not None:
            by_key[(name, key)] = (cnt[lid], tot[lid])
    ratio = {lid for lid, (name, _) in enumerate(rec.labels) if name == "random_lab.scan.ratio"}
    polish = {lid for lid, (name, _) in enumerate(rec.labels) if name == "random_lab.scan.polish"}
    polish_evals = sum(
        1 for i, lid in enumerate(rec.label) if lid in ratio and rec.label[rec.parent[i]] in polish
    ) if ratio and polish else 0

    ops = max(ops, 1)
    us = 1e-3

    def per_op(x):
        return x / ops

    def mean_us(name, key=None):
        c, t = (by_key.get((name, key), (0, 0)) if key is not None
                else (count.get(name, 0), total.get(name, 0)))
        return t * us / c if c else 0.0

    def share(x):
        return x / wall_ns if wall_ns > 0 else 0.0

    m: dict = {}
    m["matrix_core.construct.count_per_op"] = per_op(count.get("matrix_core.construct", 0))
    m["matrix_core.construct.us_per_op"] = per_op(total.get("matrix_core.construct", 0) * us)
    m["matrix_core.digest.us_per_call"] = mean_us("matrix_core.digest")
    m["matrix_core.self_share"] = share(layer_self["matrix_core"])

    m["random_lab.derive_seed.us_per_op"] = per_op(total.get("random_lab.derive_seed", 0) * us)
    for kind in kinds:
        m[f"random_lab.generate.us.{kind}"] = mean_us("random_lab.generate", kind)
    driver_self = self_by_name.get("random_lab.suite", 0) + self_by_name.get("random_lab.trial", 0)
    m["random_lab.driver.self_us_per_op"] = per_op(driver_self * us)
    m["random_lab.self_share"] = share(layer_self["random_lab"])
    scan_total = total.get("random_lab.scan", 0)
    m["random_lab.scan.polish_share"] = (
        total.get("random_lab.scan.polish", 0) / scan_total if scan_total else 0.0
    )
    ratio_evals = count.get("random_lab.scan.ratio", 0)
    m["random_lab.scan.climb_share"] = 1.0 - polish_evals / ratio_evals if ratio_evals else 0.0

    svd_calls = count.get("spectral.svd", 0)
    svd_mats: dict = {}
    svd_time: dict = {}
    for (name, key), (c, t) in by_key.items():
        if name == "spectral.svd":
            dim, nmat = key
            svd_mats[dim] = svd_mats.get(dim, 0) + c * nmat
            svd_time[dim] = svd_time.get(dim, 0) + t
    m["spectral.svd.calls_per_op"] = per_op(svd_calls)
    m["spectral.svd.matrices_per_op"] = per_op(sum(svd_mats.values()))
    for d in dims:
        m[f"spectral.svd.us_per_matrix.d{d}"] = svd_time[d] * us / svd_mats[d] if svd_mats.get(d) else 0.0
    abs_calls = count.get("spectral.abs_op", 0)
    m["spectral.abs_op.self_us_per_call"] = (
        self_by_name.get("spectral.abs_op", 0) * us / abs_calls if abs_calls else 0.0
    )
    m["spectral.self_share"] = share(layer_self["spectral"])

    geo = [n for n in count if _layer(n) == "hs_geometry"]
    m["hs_geometry.calls_per_op"] = per_op(sum(count[n] for n in geo))
    m["hs_geometry.us_per_op"] = per_op(sum(total[n] for n in geo) * us)
    m["hs_geometry.self_share"] = share(layer_self["hs_geometry"])

    for iid in ids:
        m[f"inequality_suite.check.us.{iid}"] = mean_us("inequality_suite.check", iid)
    m["inequality_suite.check.self_us_per_op"] = per_op(self_by_name.get("inequality_suite.check", 0) * us)
    m["inequality_suite.self_share"] = share(layer_self["inequality_suite"])

    runs = count.get("cli.main", 0)
    m["cli.self_ms_per_run"] = self_by_name.get("cli.main", 0) * 1e-6 / runs if runs else 0.0
    m["trace.accounted_share"] = share(sum(layer_self.values()))
    return m
