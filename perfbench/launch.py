"""Run the vortexdiff CLI with every public callable of the package traced.

Usage: python launch.py SPANS_FILE INVOCATION_ID -- CLI_ARGS...

The launcher imports the package, then replaces each public function (and
each public method or ``__post_init__`` of a class) defined in a
``vortexdiff`` module with a wrapper that records a span.  Wrappers are put
in place by rewriting module globals and class attributes, so a call from
inside the defining module is seen too and no file of the package changes.
The 2-D and n-D entry points of ``numpy.fft`` and ``scipy.fft`` are counted,
as are the bytes each ``write_*`` function leaves in its output file and the
bytes the scenario layer hashes.  Spans stay in memory and are written to
SPANS_FILE as JSON when the CLI returns.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import types
from time import perf_counter

FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []          # [name, layer, start, end, parent]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.wrapped: list[str] = []
        self._in_fft = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self.stack
        counts_bytes = fn.__name__.startswith("write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
                if counts_bytes and args and isinstance(args[0], (str, os.PathLike)):
                    try:
                        self.count(f"{name}.bytes", os.path.getsize(args[0]))
                    except OSError:
                        pass

        self.wrapped.append(name)
        return traced

    def wrap_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_fft:
                return fn(*args, **kwargs)
            self._in_fft = True
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_fft = False
            self.count("fft2d_calls")
            self.count("fft2d_points", max(getattr(args[0], "size", 0), out.size))
            return out

        return counted

    def install(self, package: str = "vortexdiff") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        replacements = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                        and not hasattr(obj, "_member_map_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__post_init__"):
                            setattr(obj, meth, self.wrap(fn, f"{layer}.{attr}.{meth}", layer))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
        for fft_module in ("numpy.fft", "scipy.fft"):
            mod = sys.modules.get(fft_module)
            for attr in FFT_NAMES if mod else ():
                if hasattr(mod, attr):
                    setattr(mod, attr, self.wrap_fft(getattr(mod, attr)))
        scenario = sys.modules.get(package + ".scenario")
        if scenario is not None and getattr(scenario, "hashlib", None) is hashlib:
            scenario.hashlib = self._counting_hashlib()

    def _counting_hashlib(self):
        """A stand-in for the hashlib module that counts the bytes hashed."""
        tracer = self

        class CountingHash:
            def __init__(self, data=b""):
                self._h = hashlib.sha256()
                self.update(data)

            def update(self, data):
                tracer.count("scenario.hashed_bytes", memoryview(data).nbytes)
                self._h.update(data)

            def __getattr__(self, attr):
                return getattr(self._h, attr)

        proxy = types.ModuleType("hashlib")
        proxy.__dict__.update(vars(hashlib))
        proxy.sha256 = CountingHash
        return proxy

    def dump(self, path: str) -> None:
        record = {"invocation": self.invocation, "wrapped": self.wrapped,
                  "spans": self.spans, "counters": self.counters}
        with open(path, "w") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    spans_path, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_FILE INVOCATION_ID -- CLI_ARGS...")
    import vortexdiff.cli  # noqa: F401  (imports every module of the package)

    tracer = Tracer(invocation)
    tracer.install()
    try:
        return sys.modules["vortexdiff.cli"].main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
