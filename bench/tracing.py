"""Spans around the package's layer boundaries, for the traced run only.

``Tracer.install`` wraps each boundary function by patching it in every
``entanglecone`` module that holds a reference to it (``classify_map``
lives in both ``classify`` and ``cli``, for example), and wraps
``numpy.linalg.eigh`` / ``eigvalsh`` as kernels. A boundary that no
longer exists is recorded as absent rather than raising, so the same
benchmark runs on a commit that deleted or renamed it.

Each span records name, start, end, parent span and job; kernel calls
are counted and timed against the innermost open span. Spans stay in
memory (flat arrays) until ``write``. The timed runs install nothing.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "entanglecone"
SETUP_JOB = "setup"

# (span name, module, attribute). states._dykstra is the one private
# boundary: it is where the search spends its time.
BOUNDARIES = (
    ("cli.main", "cli", "main"),
    ("linalg.hermitian_eigen", "linalg", "hermitian_eigen"),
    ("linalg.support_projection", "linalg", "support_projection"),
    ("states.search_ppt_entangled", "states", "search_ppt_entangled"),
    ("states.dykstra", "states", "_dykstra"),
    ("states.witness_battery", "states", "witness_battery"),
    ("states.ppt_check", "states", "ppt_check"),
    ("states.peres_equivalence", "states", "peres_equivalence"),
    ("classify.classify_map", "classify", "classify_map"),
    ("classify.block_positivity_minimize", "classify", "block_positivity_minimize"),
    ("classify.is_cp", "classify", "is_cp"),
    ("classify.is_copositive", "classify", "is_copositive"),
    ("classify.default_witness_library", "classify", "default_witness_library"),
    ("duality.apply_to_second", "duality", "apply_to_second"),
    ("duality.map_from_state", "duality", "map_from_state"),
    ("blocks.decompose_separable", "blocks", "decompose_separable"),
    ("parallel.run_indexed", "parallel", "run_indexed"),
)
KERNELS = (("numpy.eigh", "eigh"), ("numpy.eigvalsh", "eigvalsh"))
EIGH_SIZES = (3, 4, 9)


def serialize_groups(module) -> dict[str, list[str]]:
    """The serialize functions behind serialize.parse and serialize.emit,
    found by name so that added or renamed encoders are still covered."""
    parse, emit = [], []
    for attr, obj in vars(module).items():
        if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
            continue
        if attr == "load_json_file" or attr.endswith("_from_json"):
            parse.append(attr)
        elif attr in ("dumps", "to_text") or attr.endswith("_to_json"):
            emit.append(attr)
    return {"serialize.parse": sorted(parse), "serialize.emit": sorted(emit)}


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self._job = -1
        self._count_kernels = False
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.kernel_s = array("d")
        self.kernel_n = array("i")
        self._stack: list[int] = []
        self.kernel_calls: Counter = Counter()
        self.kernel_busy: Counter = Counter()
        self.absent: list[str] = []
        self.groups: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def set_job(self, label: str) -> None:
        self.jobs.append(label)
        self._job = len(self.jobs) - 1
        self._count_kernels = label != SETUP_JOB

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn):
        name_id = self._name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self._job)
            self.kernel_s.append(0.0)
            self.kernel_n.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name: str, fn):
        clock = time.perf_counter
        by_size = {size: f"{name}.calls_{size}" for size in EIGH_SIZES}
        other, total = f"{name}.calls_other", f"{name}.calls"
        calls, busy = self.kernel_calls, self.kernel_busy

        def wrapper(a, *args, **kwargs):
            if not (self._stack and self._count_kernels):
                return fn(a, *args, **kwargs)
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                dt = clock() - t0
                top = self._stack[-1]
                self.kernel_s[top] += dt
                self.kernel_n[top] += 1
                calls[by_size.get(np.shape(a)[-1], other)] += 1
                calls[total] += 1
                busy[name] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists; record the rest as absent."""
        specs = list(boundaries)
        try:
            serialize = importlib.import_module(f"{PACKAGE}.serialize")
            self.groups = serialize_groups(serialize)
        except ImportError:
            self.groups = {"serialize.parse": [], "serialize.emit": []}
        for group, attrs in self.groups.items():
            if not attrs:
                self.absent.append(group)
            specs += [(f"serialize.{attr}", "serialize", attr) for attr in attrs]
        for name, module, attr in specs:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
                original = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._patch_everywhere(original, self._span(name, original))
        for name, attr in KERNELS:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._kernel(name, original))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names or [""]),
            jobs=np.array(self.jobs or [""]),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            kernel_s=np.frombuffer(self.kernel_s, dtype=np.float64),
            kernel_n=np.frombuffer(self.kernel_n, dtype=np.int32),
        )

    def metrics(self, dykstra_cap: int, ascent_steps: int, search_restarts: int) -> dict:
        """Per-layer metrics over the spans of real jobs.

        busy_s sums outermost spans of a name (or of a group), calls
        counts every span, self_s subtracts direct children. Only
        classify.default_witness_library.busy_s also counts the set-up
        job, since that is where the library is built.
        """
        n_spans = len(self.start)
        ids = self._name_ids
        setup = self.jobs.index(SETUP_JOB) if SETUP_JOB in self.jobs else -2
        group_of = {}
        for group, attrs in self.groups.items():
            for attr in attrs:
                if f"serialize.{attr}" in ids:
                    group_of[ids[f"serialize.{attr}"]] = group
        child_s = [0.0] * n_spans
        ancestors: list[frozenset] = [frozenset()] * n_spans
        cache: dict = {}
        calls: Counter = Counter()
        busy: Counter = Counter()
        inside: Counter = Counter()
        check_s = 0.0
        dykstra_iters: list[int] = []
        name_of = self.names
        hermitian = ids.get("linalg.hermitian_eigen")
        dykstra = ids.get("states.dykstra")
        block_min = ids.get("classify.block_positivity_minimize")
        search = ids.get("states.search_ppt_entangled")
        library = ids.get("classify.default_witness_library")
        for i in range(n_spans):
            p = self.parent[i]
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child_s[p] += dur
                key = (ancestors[p], self.name[p])
                if key not in cache:
                    cache[key] = ancestors[p] | {self.name[p]}
                ancestors[i] = cache[key]
            anc = ancestors[i]
            if self.job[i] == setup:
                if nid == library and nid not in anc:
                    busy[name_of[nid]] += dur
                continue
            name = name_of[nid]
            calls[name] += 1
            if nid not in anc:
                busy[name] += dur
            group = group_of.get(nid)
            if group and not any(group_of.get(a) == group for a in anc):
                busy[group] += dur
            if nid == hermitian:
                check_s += dur - self.kernel_s[i]
                if block_min in anc:
                    inside["classify.block.half_steps"] += 1
            elif nid == dykstra:
                dykstra_iters.append(self.kernel_n[i] // 2)
                if search in anc:
                    inside["states.dykstra.in_search"] += 1
        cli_main = ids.get("cli.main")
        cli_self_s = sum(
            self.end[i] - self.start[i] - child_s[i]
            for i in range(n_spans)
            if self.name[i] == cli_main and self.job[i] != setup
        )

        dcalls = len(dykstra_iters)
        cap_hits = sum(1 for k in dykstra_iters if k >= dykstra_cap)
        candidates = inside["states.dykstra.in_search"] - search_restarts
        m = {
            "linalg.hermitian_eigen.calls": calls["linalg.hermitian_eigen"],
            "linalg.hermitian_eigen.busy_s": busy["linalg.hermitian_eigen"],
            "linalg.hermitian_eigen.check_s": check_s,
            "numpy.eigh.busy_s": self.kernel_busy["numpy.eigh"],
            "numpy.eigvalsh.calls": self.kernel_calls["numpy.eigvalsh.calls"],
            "states.search_ppt_entangled.busy_s": busy["states.search_ppt_entangled"],
            "states.dykstra.calls": dcalls,
            "states.dykstra.busy_s": busy["states.dykstra"],
            "states.dykstra.iterations": sum(dykstra_iters),
            "states.dykstra.cap_hits": cap_hits,
            "states.dykstra.converged_frac": (dcalls - cap_hits) / dcalls if dcalls else 0.0,
            "states.dykstra.iters_p50": statistics.median(dykstra_iters) if dcalls else 0.0,
            "states.ascent.steps": ascent_steps,
            "states.ascent.candidates_per_step": candidates / ascent_steps if ascent_steps else 0.0,
            "states.witness_battery.calls": calls["states.witness_battery"],
            "states.witness_battery.busy_s": busy["states.witness_battery"],
            "states.ppt_check.busy_s": busy["states.ppt_check"],
            "states.peres_equivalence.busy_s": busy["states.peres_equivalence"],
            "classify.classify_map.busy_s": busy["classify.classify_map"],
            "classify.block_positivity_minimize.calls": calls["classify.block_positivity_minimize"],
            "classify.block_positivity_minimize.busy_s": busy["classify.block_positivity_minimize"],
            "classify.block.half_steps": inside["classify.block.half_steps"],
            "classify.is_cp.busy_s": busy["classify.is_cp"],
            "classify.is_copositive.busy_s": busy["classify.is_copositive"],
            "classify.default_witness_library.busy_s": busy["classify.default_witness_library"],
            "duality.apply_to_second.calls": calls["duality.apply_to_second"],
            "duality.apply_to_second.busy_s": busy["duality.apply_to_second"],
            "duality.map_from_state.calls": calls["duality.map_from_state"],
            "blocks.decompose_separable.calls": calls["blocks.decompose_separable"],
            "blocks.decompose_separable.busy_s": busy["blocks.decompose_separable"],
            "linalg.support_projection.calls": calls["linalg.support_projection"],
            "serialize.parse.busy_s": busy["serialize.parse"],
            "serialize.emit.busy_s": busy["serialize.emit"],
            "cli.main.self_s": cli_self_s,
            "parallel.run_indexed.calls": calls["parallel.run_indexed"],
        }
        for size in EIGH_SIZES + ("other",):
            m[f"numpy.eigh.calls_{size}"] = self.kernel_calls[f"numpy.eigh.calls_{size}"]
        return m


def absent_metrics(metrics: dict, absent: list[str]) -> list[str]:
    """Metric names that derive from an absent boundary."""
    prefixes = {
        "states.dykstra": ("states.dykstra.", "states.ascent.candidates_per_step"),
        "classify.block_positivity_minimize": (
            "classify.block_positivity_minimize.", "classify.block.half_steps"),
        "linalg.hermitian_eigen": ("linalg.hermitian_eigen.", "classify.block.half_steps"),
        "states.search_ppt_entangled": (
            "states.search_ppt_entangled.", "states.ascent.candidates_per_step"),
    }
    out = []
    for boundary in absent:
        starts = prefixes.get(boundary, (boundary + ".",))
        out += [m for m in metrics if m.startswith(starts)]
    return sorted(set(out))
