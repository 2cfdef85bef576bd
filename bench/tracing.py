"""Per-layer spans installed from outside the package.

``Tracer.install`` wraps every public function defined in the layer modules
of ``sqglab`` and rebinds every module attribute that refers to one, so a
call reaches the wrapper whichever name it was imported under (for example
``sqglab.solver.convolve_far`` as well as ``sqglab.kernels.convolve_far``).
It also wraps scipy.fft's 2-D transforms under the single span
``grid.fft2d``, which counts one transform per plane of a stacked input, so
batching cannot look like fewer transforms.

Spans are aggregated in memory per name: calls, busy time, and the time
covered by wrapped child spans (self time is busy minus that).
``kernels.build_split`` additionally records its tracemalloc peak.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, fields

import scipy.fft

LAYERS = ("grid", "fields", "multipliers", "dyadic", "norms", "kernels", "solver", "verify")
FFT_SPAN = "grid.fft2d"
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn")
ALLOC_SPANS = ("kernels.build_split",)


@dataclass
class Stat:
    count: int = 0
    busy_s: float = 0.0
    child_s: float = 0.0
    bytes: int = 0
    peak_alloc: int = 0

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s

    def add(self, other: "Stat") -> None:
        for f in fields(self):
            if f.name == "peak_alloc":
                self.peak_alloc = max(self.peak_alloc, other.peak_alloc)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class Tracer:
    """Aggregating span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.active = False
        self._open: list[float] = []  # child time covered so far, per open span

    def reset(self) -> None:
        self.stats = {name: Stat() for name in self.stats}

    def snapshot(self) -> dict[str, Stat]:
        return {name: Stat(**vars(st)) for name, st in self.stats.items()}

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        for name in FFT_FUNCTIONS:
            setattr(scipy.fft, name, self._wrap(FFT_SPAN, getattr(scipy.fft, name)))

    def _wrap(self, span_name, fn):
        self.stats.setdefault(span_name, Stat())
        is_fft = span_name == FFT_SPAN
        track_alloc = span_name in ALLOC_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            if track_alloc:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                st = self.stats[span_name]
                st.busy_s += elapsed
                st.child_s += child
                if track_alloc:
                    st.peak_alloc = max(st.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if is_fft:
                a = args[0] if args else kwargs["x"]
                planes = a.size // (a.shape[-1] * a.shape[-2]) if a.ndim >= 2 else 1
                st.count += planes
                st.bytes += a.nbytes + out.nbytes
            else:
                st.count += 1
            return out

        return span
