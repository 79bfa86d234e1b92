"""Layer tracing for the benchmark, applied from outside the package.

While a ``Tracer`` is active, every public function of the traced modules is
replaced by a wrapper that records a span (id, parent id, name, start, end).
The package imports names across modules (``from .layer_ops import ...``),
so each wrapper is installed in every ``bubblebem`` module namespace that
holds the original function; a call through any of them is recorded.

The ``layer_ops`` wrappers also record the assembly key (kind, mesh content,
wavenumber or series order) and the computed count of kernel evaluations:
6 quadrature nodes per (collocation point, panel) pair, so 6 n^2 per
assembly and 6 n per potential evaluation point.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("mesh", "layer_ops", "boundary_calculus", "scattering",
                  "cli")

ASSEMBLERS = {
    "assemble_single_layer": "single",
    "assemble_double_layer": "double",
    "assemble_series_term_S": "series_S",
    "assemble_series_term_K": "series_K",
}

QUAD_NODES = 6


def _mesh_digest(mesh) -> str:
    h = hashlib.blake2b(digest_size=12)
    h.update(mesh.vertices.tobytes())
    h.update(mesh.triangles.tobytes())
    return h.hexdigest()


def _namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bubblebem"
                                  or name.startswith("bubblebem."))]


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not re-exports)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


class Tracer:
    """In-memory span recorder; spans of all active periods are kept."""

    def __init__(self):
        self.spans: list[list] = []     # [id, parent, name, t0, t1]
        self.assemblies: list[tuple] = []   # (span id, kind, mesh, param)
        self.potential_points: list[tuple] = []   # (span id, points, n)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sid:
                if counter is not None:
                    counter(sid, args, kwargs)
                return fn(*args, **kwargs)

        return wrapper

    def _counter(self, fname: str, fn):
        sig = inspect.signature(fn)
        kind = ASSEMBLERS.get(fname)
        if kind is not None:
            def count(sid, args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                mesh = bound["mesh"]
                param = bound["z"] if "z" in bound else bound["n"]
                self.assemblies.append((sid, kind, _mesh_digest(mesh),
                                        complex(param), mesh.n_panels))
            return count
        if fname == "eval_single_layer_potential":
            def count(sid, args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                pts = bound["points"]
                npts = len(pts) if getattr(pts, "ndim", 1) > 1 else 1
                self.potential_points.append(
                    (sid, npts, bound["mesh"].n_panels))
            return count
        return None

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        pkg = sys.modules.get("bubblebem")
        if pkg is None:
            raise RuntimeError("bubblebem must be imported before tracing")
        replaced = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"bubblebem.{short}"]
            for fname, fn in public_functions(module).items():
                replaced[id(fn)] = (fn, self._wrap(
                    f"{short}.{fname}", fn,
                    self._counter(fname, fn) if short == "layer_ops"
                    else None))
        patched = []
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(ns, attr, entry[1])
                    patched.append((ns, attr, value))
        try:
            yield self
        finally:
            for ns, attr, value in patched:
                setattr(ns, attr, value)

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its id."""
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            span[4] = time.perf_counter()

    # -- reading -----------------------------------------------------------

    def descendants(self, root: int) -> set[int]:
        """Ids of ``root`` and every span below it."""
        inside = {root}
        for sid, parent, *_ in self.spans[root + 1:]:
            if parent in inside:
                inside.add(sid)
        return inside

    def layer_stats(self, root: int) -> dict:
        """Per span name under ``root``: calls, inclusive s, self_s.

        Inclusive time counts only the outermost span of a name, so a
        function that reaches itself again is not counted twice.
        """
        ids = self.descendants(root)
        spans = [s for s in self.spans if s[0] in ids]
        child_time = defaultdict(float)
        for _, parent, _, t0, t1 in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, parent, name, t0, t1 in spans:
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - child_time[sid]
            ancestor, nested = parent, False
            while ancestor is not None:
                if self.spans[ancestor][2] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][1]
            if not nested:
                st["s"] += t1 - t0
        return dict(stats)

    def assembly_counts(self, root: int) -> dict:
        """Assembly calls, distinct keys and computed kernel pairs under
        ``root``, overall and per kind."""
        ids = self.descendants(root)
        rows = [a for a in self.assemblies if a[0] in ids]
        per_kind = {}
        for kind in ASSEMBLERS.values():
            keys = [a[1:4] for a in rows if a[1] == kind]
            per_kind[kind] = {"calls": len(keys), "distinct": len(set(keys))}
        points = [p for p in self.potential_points if p[0] in ids]
        pairs = (sum(QUAD_NODES * a[4] ** 2 for a in rows)
                 + sum(QUAD_NODES * npts * n for _, npts, n in points))
        return {"calls": len(rows),
                "distinct": len({a[1:4] for a in rows}),
                "per_kind": per_kind,
                "kernel_pairs": pairs,
                "potential_points": sum(p[1] for p in points)}

    def dump(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1}
                for sid, parent, name, t0, t1 in self.spans]
