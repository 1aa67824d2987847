"""Outside-in tracer: wraps tensorlab's public functions from the benchmark.

No file of the program changes.  `Tracer.install` rebinds each target name in
every tensorlab module that holds it (``rank_exact`` is bound separately in
linalg, secants, ranks, minrank and decomp), so calls between modules are
seen too.  Each call becomes a span (id, name, start, end, parent, case,
thread, work).  Spans are appended to a list, which is safe under the
interpreter lock, and parents come from a per-thread stack; a pool thread
with an empty stack takes the main thread's open span as its parent, since
context variables are not inherited by pool threads.  Hot helpers are only
counted.  A target that no longer exists, or whose arguments or result no
longer yield a span suffix or a work count, is reported as absent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

from inputs import CASES

MARK = "__perfbench_original__"


def _rank_kind(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return {"rational": "q", "fp": "fp"}.get(m.ring.kind, m.ring.kind)


def _rank_entries(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return m.rows * m.cols


# (module, attribute, span name, work of one call) -- timed spans
SPANS = [
    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("linalg", "rank_exact", "linalg.rank_exact", _rank_entries),
    ("linalg", "Matrix.from_rows", "linalg.from_rows", None),
    ("linalg", "kron", "linalg.kron", None),
    ("secants", "secant_dimension", "secants.secant_dimension", None),
    ("secants", "affine_tangent_basis", "secants.affine_tangent_basis", lambda a, k, r: len(r)),
    ("secants", "sample_params", "secants.sample_params", None),
    ("tensors", "rank_one", "tensors.rank_one", None),
    ("tensors", "mode_apply", "tensors.mode_apply", None),
    ("tensors", "flatten", "tensors.flatten", None),
    ("kronecker", "kronecker_coefficient", "kronecker.kronecker_coefficient", None),
    ("kronecker", "cone_sample", "kronecker.cone_sample", None),
    ("kronecker", "weyl_zero_weight_invariant_exists",
     "kronecker.weyl_zero_weight_invariant_exists", None),
    ("kronecker", "rectangular_kronecker", "kronecker.rectangular_kronecker", None),
    ("matchgate", "pfaffian", "matchgate.pfaffian", None),
    ("matchgate", "pfaffian_orientation_search", "matchgate.pfaffian_orientation_search",
     lambda a, k, r: r.candidates_tried),
    ("matchgate", "count_matchings", "matchgate.count_matchings", None),
    ("matchgate", "sub_pfaffian_vector", "matchgate.sub_pfaffian_vector", None),
    ("matchgate", "mgi_residuals", "matchgate.mgi_residuals", lambda a, k, r: len(r)),
    ("ranks", "exact_rank_bruteforce", "ranks.exact_rank_bruteforce", None),
    ("minrank", "min_rank_exact_fp", "minrank.min_rank_exact_fp", None),
    ("minrank", "gurvits_construction", "minrank.gurvits_construction", None),
    ("decomp", "kruskal_rank", "decomp.kruskal_rank", None),
]

# span names whose name gets a suffix from the arguments
SPAN_SUFFIX = {"linalg.rank_exact": _rank_kind}

# (module, attribute, counter name) -- counted, not timed
COUNTED = [
    ("kronecker", "character", "kronecker.character"),
    ("kronecker", "class_size", "kronecker.class_size"),
    ("kronecker", "partitions_of", "kronecker.partitions_of"),
]

MODULES = ("cli", "linalg", "secants", "tensors", "kronecker", "matchgate", "ranks", "minrank", "decomp")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for kind in ("q", "fp"):
        out += [(f"linalg.rank_exact.{kind}.calls", "count"), (f"linalg.rank_exact.{kind}.s", "s"),
                (f"linalg.rank_exact.{kind}.entries", "count")]
    out += [("linalg.from_rows.calls", "count"), ("linalg.from_rows.s", "s"), ("linalg.kron.s", "s"),
            ("secants.secant_dimension.calls", "count"), ("secants.secant_dimension.s", "s"),
            ("secants.affine_tangent_basis.calls", "count"), ("secants.affine_tangent_basis.s", "s"),
            ("secants.affine_tangent_basis.rows", "count"), ("secants.sample_params.s", "s"),
            ("secants.rank_s", "s"), ("secants.rank_share", "ratio")]
    for fn in ("rank_one", "mode_apply", "flatten"):
        out += [(f"tensors.{fn}.calls", "count"), (f"tensors.{fn}.s", "s")]
    out += [("kronecker.kronecker_coefficient.calls", "count"),
            ("kronecker.kronecker_coefficient.s", "s"),
            ("kronecker.cone_sample.s", "s"),
            ("kronecker.weyl_zero_weight_invariant_exists.s", "s"),
            ("kronecker.rectangular_kronecker.s", "s"),
            ("kronecker.character.calls", "count"), ("kronecker.class_size.calls", "count"),
            ("kronecker.partitions_of.calls", "count"),
            ("kronecker.character_calls_per_coefficient", "ratio"),
            ("matchgate.pfaffian.calls", "count"), ("matchgate.pfaffian.busy_s", "s"),
            ("matchgate.pfaffian_orientation_search.s", "s"),
            ("matchgate.pfaffian_orientation_search.candidates_tried", "count"),
            ("matchgate.pfaffian_orientation_search.candidates_per_s", "1/s"),
            ("matchgate.count_matchings.s", "s"), ("matchgate.sub_pfaffian_vector.s", "s"),
            ("matchgate.mgi_residuals.s", "s"), ("matchgate.mgi_residuals.relations", "count"),
            ("ranks.exact_rank_bruteforce.calls", "count"), ("ranks.exact_rank_bruteforce.s", "s"),
            ("minrank.min_rank_exact_fp.s", "s"), ("minrank.min_rank_exact_fp.elements", "count"),
            ("minrank.gurvits_construction.s", "s"),
            ("decomp.kruskal_rank.calls", "count"), ("decomp.kruskal_rank.s", "s"),
            ("decomp.kruskal_rank.subset_ranks", "count")]
    out += [(f"{m}.self_s", "s") for m in MODULES]
    out += [(f"cli.case.{case}.s", "s") for _, case, _ in CASES]
    out += [("cli.persist.s", "s"), ("trace.overhead_s", "s")]
    return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tensorlab" or name.startswith("tensorlab."))]


def wrapped_names() -> list[str]:
    """Names in tensorlab modules and classes that currently hold a wrapper."""
    out = []
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if hasattr(value, MARK):
                out.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    if hasattr(getattr(raw, "__func__", raw), MARK):
                        out.append(f"{mod.__name__}.{key}.{attr}")
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case: str | None = None
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._counters: dict[str, itertools.count] = {}
        self._counts: dict[str, int] | None = None
        self._local = threading.local()
        self._absent_lock = threading.Lock()
        self._main_stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self._local.stack = self._main_stack
        for module, attr, name, work in SPANS:
            self._rebind(module, attr, name, lambda fn, name=name, work=work: self._timed(fn, name, work))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, name, lambda fn, name=name: self._counted(fn, name))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _rebind(self, module: str, attr: str, name: str, make) -> None:
        mod = sys.modules.get(f"tensorlab.{module}")
        *path, key = attr.split(".")
        owner = mod
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, key, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            raw = vars(owner)[key]
            self._restore.append((owner, key, raw))
            setattr(owner, key, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            return
        for holder in _package_modules():
            for k, v in list(vars(holder).items()):
                if v is original:
                    self._restore.append((holder, k, v))
                    setattr(holder, k, wrapper)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _timed(self, fn, name: str, work):
        suffix = SPAN_SUFFIX.get(name)
        spans, ids, perf = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(ids)
            label = name
            if suffix:
                kind = self._extract(f"{name}.kind", suffix, args, kwargs)
                label = name if kind is None else f"{name}.{kind}"
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                span = [sid, label, start, end, parent, self.case, threading.get_ident(), None]
                spans.append(span)
            if work is not None:
                span[7] = self._extract(f"{name}.work", work, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _extract(self, what: str, extract, *args):
        """`extract(*args)`, or None with `what` reported absent if it fails:
        a changed signature or result type must not fail the program's call."""
        try:
            return extract(*args)
        except Exception:
            with self._absent_lock:  # extractors may run on pool threads
                if what not in self.absent:
                    self.absent.append(what)
            return None

    def _counted(self, fn, name: str):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def counts(self) -> dict[str, int]:
        """Calls of each counted helper; read once, after the pass."""
        if self._counts is None:
            # count() yields 0, 1, ...: the next value is the number of calls
            self._counts = {name: next(c) for name, c in self._counters.items()}
        return self._counts

    # -- derived metrics ----------------------------------------------------

    def metrics(self, case_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of the traced pass (trace.overhead_s excluded)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        work = defaultdict(int)
        by_id = {}
        children = defaultdict(list)
        for span in self.spans:
            sid, name, start, end, parent = span[:5]
            by_id[sid] = span
            calls[name] += 1
            total[name] += end - start
            work[name] += span[7] or 0
            if parent is not None:
                children[parent].append(span)

        def under(span, ancestor: str) -> bool:
            parent = span[4]
            while parent is not None:
                up = by_id[parent]
                if up[1] == ancestor:
                    return True
                parent = up[4]
            return False

        self_time = defaultdict(float)
        for span in self.spans:
            self_time[span[1].split(".")[0]] += _self_seconds(span, children.get(span[0], ()))

        ranks = [s for s in self.spans if s[1].startswith("linalg.rank_exact.")]
        rank_in_secants = sum(s[3] - s[2] for s in ranks if under(s, "secants.secant_dimension"))
        counts = self.counts()
        search = "matchgate.pfaffian_orientation_search"
        derived = {
            "linalg.rank_exact.q.entries": work["linalg.rank_exact.q"],
            "linalg.rank_exact.fp.entries": work["linalg.rank_exact.fp"],
            "secants.affine_tangent_basis.rows": work["secants.affine_tangent_basis"],
            "secants.rank_s": rank_in_secants,
            "secants.rank_share": _ratio(rank_in_secants, total["secants.secant_dimension"]),
            "kronecker.character_calls_per_coefficient": _ratio(
                counts.get("kronecker.character", 0), calls["kronecker.kronecker_coefficient"]),
            "matchgate.pfaffian.busy_s": total["matchgate.pfaffian"],
            f"{search}.candidates_tried": work[search],
            f"{search}.candidates_per_s": _ratio(work[search], total[search]),
            "matchgate.mgi_residuals.relations": work["matchgate.mgi_residuals"],
            "minrank.min_rank_exact_fp.elements": sum(
                1 for s in ranks if under(s, "minrank.min_rank_exact_fp")),
            "decomp.kruskal_rank.subset_ranks": sum(1 for s in ranks if under(s, "decomp.kruskal_rank")),
            "cli.persist.s": total["cli.main"] - total["cli.run"],
        }
        derived.update({f"{m}.self_s": self_time[m] for m in MODULES})
        derived.update({f"cli.case.{case}.s": case_seconds.get(case, 0.0) for _, case, _ in CASES})
        out: dict[str, float] = {}
        for name, _ in per_layer_metrics():
            if name in derived:
                out[name] = derived[name]
            elif name.endswith(".calls"):
                base = name[: -len(".calls")]
                out[name] = counts[base] if base in counts else calls[base]
            elif name.endswith(".s"):
                out[name] = total[name[: -len(".s")]]
        return out

    def span_rows(self):
        """Spans as JSON-ready lists: id, name, start, end, parent, case, thread, work."""
        return [list(span) for span in sorted(self.spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_seconds(span, kids) -> float:
    """Span duration minus the part of it covered by its children's spans,
    which may overlap when they ran on several threads."""
    start, end = span[2], span[3]
    covered = 0.0
    reach = start
    for _, _, c_start, c_end, *_ in sorted(kids, key=lambda s: s[2]):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered
