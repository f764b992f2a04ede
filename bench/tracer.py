"""Span tracer wrapped around gelfond's layers from the outside.

`Tracer.install()` replaces every public function of the six library
modules with a wrapper, in its own module and under every other name a
gelfond module bound it to (so `recurrence.newman_sum_dp` and
`exponent.multiplicative_order` are traced too).  Nested calls become child
spans; a layer's self time is its spans' time minus their children's.
Memory is sampled, not traced: a SIGPROF timer fires every millisecond of
CPU time and reads the resident set size from /proc/self/statm.  A layer's
peak is the largest growth of the resident set over its value when the
layer's outermost open span began.  (tracemalloc would give allocation
peaks, but it slows this package's integer loops 18-30 times.)  Spans are
kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import signal
import sys
import time

LAYERS = ("sums", "cosets", "spectral", "exponent", "recurrence", "empirical")

#: Per-call work counters: span name -> (counter, function of (args, result)).
COUNTERS = {
    "sums.newman_sum_dp": ("sums.dp_cells", lambda args, out: args[0] * args[2].bit_length()),
    "sums.parity_counts": ("sums.dp_cells", lambda args, out: args[0] * args[2].bit_length()),
    "recurrence.verify_recurrence": ("recurrence.checks", lambda args, out: out.checks),
    "cosets.classify_prime": ("cosets.primes_classified", lambda args, out: 1),
    "exponent.alpha_for_rep": ("exponent.reps_evaluated", lambda args, out: 1),
    "empirical.dyadic_profile": ("empirical.points", lambda args, out: 1 << args[2]),
}
COUNTER_NAMES = sorted({name for name, _ in COUNTERS.values()})

SAMPLE_S = 0.001
PAGE = os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index]
        self._stack = []   # open frames: [span index, layer index, child time]
        self._depth = [0] * len(LAYERS)
        self._base = [None] * len(LAYERS)  # RSS when the outermost open span began
        self.self_s = [0.0] * len(LAYERS)
        self.total_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.peak = [0] * len(LAYERS)      # written by the SIGPROF handler only
        self.counts = {name: 0 for name in COUNTER_NAMES}
        self._patched = []  # (namespace, attribute, original)
        self._statm = None
        self._old_handler = None

    # ------------------------------------------------------------- spans

    def _rss(self) -> int:
        return int(os.pread(self._statm, 64, 0).split()[1]) * PAGE

    def _sample(self, signum, frame):
        rss = self._rss()
        for i, base in enumerate(self._base):
            if base is not None and rss - base > self.peak[i]:
                self.peak[i] = rss - base

    def _enter(self, name, layer):
        parent_index = self._stack[-1][0] if self._stack else -1
        if self._depth[layer] == 0:
            self._base[layer] = self._rss()
        self._depth[layer] += 1
        self.spans.append([name, time.perf_counter(), None, parent_index])
        self._stack.append([len(self.spans) - 1, layer, 0.0])

    def _exit(self):
        end = time.perf_counter()
        index, layer, child_time = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self._depth[layer] -= 1
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_time
        if self._depth[layer] == 0:
            self.total_s[layer] += duration
            self._base[layer] = None
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, layer_name):
        name = f"{layer_name}.{fn.__name__}"
        layer = LAYERS.index(layer_name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, out)
            return out

        return wrapper

    # ------------------------------------------------------ installation

    def install(self):
        """Wrap every public function of the layers, under every bound name,
        and start the memory sampler."""
        import gelfond  # noqa: F401  (loads every layer)

        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "gelfond" or key.startswith("gelfond.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"gelfond.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapper)
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._old_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old_handler)
        os.close(self._statm)
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ output

    def metrics(self) -> dict:
        """Per-layer calls, total/self seconds, peak MiB, plus the work counters."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.total_s"] = self.total_s[i]
            out[f"{layer}.self_s"] = self.self_s[i]
            out[f"{layer}.peak_mib"] = self.peak[i] / 2**20
        out.update(self.counts)
        return out

    def merge(self, metrics: dict, spans: list) -> None:
        """Add another process's metrics and spans (a traced CLI child)."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        for i, layer in enumerate(LAYERS):
            self.calls[i] += metrics[f"{layer}.calls"]
            self.total_s[i] += metrics[f"{layer}.total_s"]
            self.self_s[i] += metrics[f"{layer}.self_s"]
            self.peak[i] = max(self.peak[i], round(metrics[f"{layer}.peak_mib"] * 2**20))
        for name in COUNTER_NAMES:
            self.counts[name] += metrics[name]

    def dump(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent id (-1 at top)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
