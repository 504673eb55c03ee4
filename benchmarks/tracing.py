"""Timing spans around calls into the clta package, patched in from outside.

A span wraps one public function of one module at every place the package
binds it: the defining module, every module that imported it by name, and
every class that holds it as a method. Nothing inside `src/` knows about
the spans; untraced runs never construct a `Tracer`, so they patch nothing.

Self time is a span's duration minus the time its child spans took. The
stack of open spans is a plain list: the benchmark runs episodes serially
(it removes `CLTA_THREADS`), so spans never interleave across threads.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str              # reported as <name>.calls and <name>.self_s
    module: str            # clta submodule that defines the function
    attr: str              # "func" or "Class.method"
    site: str | None = None  # only wrap the binding in this clta submodule


SPANS = [
    Span("synth.generate", "synth", "generate"),
    Span("io_files.write_feature_file", "io_files", "write_feature_file"),
    Span("io_files.read_feature_file", "io_files", "read_feature_file"),
    Span("io_files.read_manifest", "io_files", "read_manifest"),
    Span("io_files.save_checkpoint", "io_files", "save_checkpoint"),
    Span("io_files.load_checkpoint", "io_files", "load_checkpoint"),
    Span("attention.attend_forward", "attention", "attend_forward"),
    Span("attention.attend_backward", "attention", "attend_backward"),
    Span("attention.fuse_backward", "attention", "fuse_backward"),
    Span("baselines.tsf_forward", "baselines", "tsf_forward"),
    Span("baselines.tsf_backward", "baselines", "tsf_backward"),
    Span("baselines.sldg_forward", "baselines", "sldg_forward"),
    Span("baselines.sldg_backward", "baselines", "sldg_backward"),
    Span("baselines.self_attention_forward", "baselines", "self_attention_forward"),
    Span("baselines.self_attention_backward", "baselines", "self_attention_backward"),
    Span("model.forward_video", "model", "Model.forward_video"),
    Span("model.backward_video", "model", "Model.backward_video"),
    Span("model.loss_and_grads", "model", "loss_and_grads"),
    Span("model.descriptor", "model", "descriptor"),
    Span("classifiers.softmax_logits", "classifiers", "softmax_logits"),
    Span("classifiers.cosine_logits", "classifiers", "cosine_logits"),
    Span("classifiers.cosine_logits_backward", "classifiers", "cosine_logits_backward"),
    Span("trainer.train", "trainer", "train"),
    Span("trainer.evaluate", "trainer", "evaluate"),
    # one function, split by the module that calls it
    Span("trainer.adam_step.train", "trainer", "adam_step", site="trainer"),
    Span("trainer.adam_step.episodes", "trainer", "adam_step", site="episodes"),
    Span("episodes.run_episodes", "episodes", "run_episodes"),
    Span("episodes.sample_episode", "episodes", "sample_episode"),
]


def _arg(args, kwargs, index, name):
    """Positional-or-keyword argument, or None if the call did not pass it."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


# Work counters read from a span's arguments and result. Byte counts are
# computed from array sizes and on-disk dtypes (float32 features, float64
# checkpoint blocks), not measured at the file system.
def _count_videos(c, args, kwargs, result):
    c["model.videos"] += len(_arg(args, kwargs, 1, "batch"))


def _count_frames(c, args, kwargs, result):
    c["attention.frames"] += _arg(args, kwargs, 0, "F").shape[0]


def _count_feature_write(c, args, kwargs, result):
    c["io_files.bytes_written"] += 4 * _arg(args, kwargs, 1, "features").size


def _count_feature_read(c, args, kwargs, result):
    c["io_files.bytes_read"] += 4 * result.features.size


def _count_checkpoint_write(c, args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    c["io_files.bytes_written"] += 8 * sum(p.size for p in params.values())


def _count_checkpoint_read(c, args, kwargs, result):
    c["io_files.bytes_read"] += 8 * sum(p.size for p in result[0].values())


def _count_episodes(c, args, kwargs, result):
    c["episodes.episodes"] += len(result.results)


COUNTERS = {
    "model.loss_and_grads": _count_videos,
    "attention.attend_forward": _count_frames,
    "io_files.write_feature_file": _count_feature_write,
    "io_files.read_feature_file": _count_feature_read,
    "io_files.save_checkpoint": _count_checkpoint_write,
    "io_files.load_checkpoint": _count_checkpoint_read,
    "episodes.run_episodes": _count_episodes,
}
COUNTER_NAMES = ("model.videos", "attention.frames", "io_files.bytes_written",
                 "io_files.bytes_read", "episodes.episodes")


def _namespaces():
    """Every clta module, and every class defined in one."""
    import clta
    for info in pkgutil.iter_modules(clta.__path__):
        importlib.import_module(f"clta.{info.name}")
    mods = [m for n, m in sys.modules.items() if n == "clta" or n.startswith("clta.")]
    classes = {id(c): c for m in mods for c in vars(m).values()
               if inspect.isclass(c) and c.__module__.startswith("clta.")}
    return mods + list(classes.values())


def _lookup(span):
    """The function object behind a span, or None if the package lost it."""
    obj = sys.modules.get(f"clta.{span.module}")
    for part in span.attr.split("."):
        obj = vars(obj).get(part) if obj is not None else None
    return obj if callable(obj) else None


def _binding_sites(span, namespaces):
    """[(namespace, attribute)] where the package binds the span's function."""
    fn = _lookup(span)
    if fn is None:
        return []
    sites = []
    for ns in namespaces:
        owner = ns.__name__ if inspect.ismodule(ns) else ns.__module__
        if span.site is not None and owner != f"clta.{span.site}":
            continue
        sites.extend((ns, attr) for attr, val in vars(ns).items() if val is fn)
    return sites


class Tracer:
    """Per-span call counts and self time, plus work counters."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        namespaces = _namespaces()
        self._sites = {s.name: _binding_sites(s, namespaces) for s in spans}
        self._stack: list[float] = []
        self._patched: list = []
        self.reset()

    def reset(self):
        self.calls = {s.name: 0 for s in self.spans}
        self.self_s = {s.name: 0.0 for s in self.spans}
        self.counters = {n: 0 for n in COUNTER_NAMES}
        self.top_s = 0.0   # wall time inside some outermost span

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if count is not None:
                try:
                    count(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the signature or result changed: count nothing
            return result
        return wrapper

    def __enter__(self):
        for name, sites in self._sites.items():
            for ns, attr in sites:
                orig = vars(ns)[attr]
                setattr(ns, attr, self._wrap(name, orig))
                self._patched.append((ns, attr, orig))
        return self

    def __exit__(self, *exc):
        while self._patched:
            ns, attr, orig = self._patched.pop()
            setattr(ns, attr, orig)
        return False
