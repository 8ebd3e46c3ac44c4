"""Spans around the calls into each cobranch module, recorded from outside.

The traced run replaces chosen module attributes of the `cobranch` package
with wrappers that record one span per call: name, start, end, parent span
and run id. Each target is wrapped where its caller looks it up, so a name
imported with `from .x import f` is wrapped in the importing module too
(`cobranch.evaluation.kmeans` as well as `cobranch.estimate.kmeans`).
Spans stay in memory until the run ends. Nothing under `src/` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

MODULES = ("cli", "data", "train", "nn", "losses", "transfer", "estimate", "evaluation")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    def to_dict(self, run_id: str) -> dict:
        return {
            "run": run_id, "id": self.id, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "counters": self.counters,
        }


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str | None, count=None):
        """`fn` inside a span; `count(args, kwargs, result)` returns counters
        to add to the span. With no name the call records no span of its own
        and adds its counters to the enclosing one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) if name else contextlib.nullcontext() as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp = sp or self._open[-1]
                    for key, value in count(args, kwargs, result).items():
                        sp.counters[key] = sp.counters.get(key, 0) + value
            return result

        wrapper.__traced__ = fn
        return wrapper


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its children's durations. Spans nest
    strictly (one thread, context managers), so children never overlap. A
    parent outside `spans` is skipped."""
    out = {sp.id: sp.end - sp.start for sp in spans}
    for sp in spans:
        if sp.parent in out:
            out[sp.parent] -= sp.end - sp.start
    return out


@dataclass
class NameStats:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counters: dict = field(default_factory=lambda: defaultdict(float))


def summarize(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: inclusive seconds, self seconds, calls, summed counters.
    No wrapped function calls itself, so inclusive sums never double count."""
    selfs = self_seconds(spans)
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for sp in spans:
        st = stats[sp.name]
        st.s += sp.end - sp.start
        st.self_s += selfs[sp.id]
        st.calls += 1
        for key, value in sp.counters.items():
            st.counters[key] += value
    return stats


# --- what to wrap ---------------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _batches(args, kwargs, result):
    return {"batches": len(result)}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _hungarian_n(args, kwargs, result):
    return {"n": len(result)}


def _gate(args, kwargs, result):
    unl = args[2] if len(args) > 2 else kwargs["unl_logits_v1"]
    return {"gated": result.n_gated, "gate_slots": 2 * len(unl)}


def _soft_anchors(args, kwargs, result):
    batch = args[0] if args else kwargs["batch"]
    offered = batch.features.shape[0]
    return {"offered": offered, "kept": offered - result.n_excluded}


def _keep(args, kwargs, result):
    return {"scored": int(result.mask.size), "kept": int(result.mask.sum())}


# (module, attribute, span name, counter): the attribute is wrapped in the
# module whose code looks it up when cli, train or eval run, so a function
# imported by name into two modules appears twice under one span name.
TARGETS = (
    ("cli", "write_json_atomic", "cli.write_json_atomic", None),
    ("cli", "write_text_atomic", "cli.write_text_atomic", None),
    ("cli", "load_checkpoint", "cli.load_checkpoint", None),
    ("cli", "build_dataset", "cli.build_dataset", None),
    ("cli", "load_embeddings", "data.load_embeddings", _rows),
    ("cli", "save_embeddings", "data.save_embeddings", None),
    ("cli", "evaluate", "evaluation.evaluate", None),
    ("train", "run", "train.run", None),
    ("train", "make_views", "train.make_views", None),
    ("train", "make_batches", "train.make_batches", _batches),
    ("train", "estimate_round", "estimate.estimate_round", None),
    ("nn", "classifier_branch_forward", "nn.classifier_branch_forward", None),
    ("nn", "classifier_branch_backward", "nn.classifier_branch_backward", None),
    ("nn", "contrastive_branch_forward", "nn.contrastive_branch_forward", None),
    ("nn", "contrastive_branch_backward", "nn.contrastive_branch_backward", None),
    ("nn", "sgd_step", "nn.sgd_step", None),
    ("nn", "encode", "nn.encode", None),
    ("losses", "contrastive_objective", "losses.contrastive_objective", None),
    ("losses", "contrastive_loss", "losses.contrastive_loss", None),
    ("losses", "soft_contrastive_loss", "losses.soft_contrastive_loss", _soft_anchors),
    ("losses", "classification_objective", "losses.classification_objective", _gate),
    ("transfer", "debias", "transfer.debias", None),
    ("transfer", "sample_pseudolabels", "transfer.sample_pseudolabels", _keep),
    ("transfer", "build_positiveness_matrix", "transfer.build_positiveness_matrix", None),
    ("estimate", "kmeans", "estimate.kmeans", None),
    ("estimate", "_lloyd", None, _iterations),  # one per restart, inside kmeans
    ("estimate", "align_clusters", "estimate.align_clusters", None),
    ("estimate", "hungarian", "estimate.hungarian", _hungarian_n),
    ("evaluation", "score_clustering", "evaluation.score_clustering", None),
    ("evaluation", "kmeans", "estimate.kmeans", None),
    ("evaluation", "hungarian", "estimate.hungarian", _hungarian_n),
)


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block, then put each
    original back. Yields the targets that do not exist (module attributes
    a later version of the program renamed or removed)."""
    originals = []
    missing = []
    try:
        for module, attr, name, count in targets:
            owner = importlib.import_module(f"cobranch.{module}")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                missing.append(f"cobranch.{module}.{attr}")
                continue
            if hasattr(fn, "__traced__"):
                raise RuntimeError(f"cobranch.{module}.{attr} is already wrapped")
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, count))
        yield missing
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
