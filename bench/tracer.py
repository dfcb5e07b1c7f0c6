"""Outside-in tracer: spans around twistpf's public layer functions.

The tracer patches names from outside the package -- module attributes that
callers look up at call time, and methods on the model and twist classes --
so the package itself carries no tracing code. ``install()`` patches,
``uninstall()`` restores the originals; untraced passes therefore run the
unmodified functions.

Each span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``run`` the id of the experiment
pass that produced it. Spans stay in memory, in flat typed arrays, until
:meth:`Tracer.save`.

Processes forked by the harness's pool would inherit the patches, but their
spans would stay in the child; the benchmark traces serial calls only.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

FILTERS = ("bootstrap_run", "twisted_run", "apf_run", "sis_run")
TWIST_METHODS = ("log_psi", "log_q_psi", "sample_twisted_mutation")
MODEL_METHODS = ("log_g", "sample_mutation")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self.sizes: dict[int, tuple] = {}   # span index -> work the call covers
        self.run_id = -1
        self._stack = [-1]
        self._patches: list = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- recording -------------------------------------------------------
    def begin(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def end(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end(i)

    def _wrap(self, name: str, fn, sizes=None):
        """``sizes(bound arguments)`` records the work a call covers; it is
        evaluated only for the few long spans that need it."""
        nid = self.name_id(name)
        sig = inspect.signature(fn) if sizes is not None else None
        begin, end, recorded = self.begin, self.end, self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)
                if sig is not None:
                    recorded[i] = sizes(sig.bind(*args, **kwargs).arguments)

        return wrapper

    # -- patching --------------------------------------------------------
    def _patch_attr(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new) -> None:
        """Rebind every module-level reference to ``original`` inside twistpf,
        so a name imported into another module is traced wherever it moves."""
        for modname, mod in list(sys.modules.items()):
            if modname == "twistpf" or modname.startswith("twistpf."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch_attr(mod, attr, new)

    def install(self) -> None:
        from twistpf import filters, fkcore, harness, oracle, resampling, rng, twists

        def filter_sizes(a):
            return (a.get("n_particles", a.get("n_chains")), a["n_steps"])

        def oracle_sizes(a):
            return (a["n_particles"], a["n_steps"], a["params"].k)

        functions = [(filters, f, f"filters.{f}", filter_sizes) for f in FILTERS] + [
            (resampling, "multinomial_resample", "resampling.multinomial_resample", None),
            (twists, "eigen_triple", "twists.eigen_triple", None),
            (harness, "draw_window", "harness.draw_window", None),
            (oracle, "build_bold_kernels", "oracle.build_bold_kernels", None),
            (oracle, "exact_moments", "oracle.exact_moments", oracle_sizes),
        ]
        for module, attr, name, sizes in functions:
            original = getattr(module, attr, None)
            if original is not None:
                self._patch_everywhere(original, self._wrap(name, original, sizes))
        methods = [(type(rng.RngStream(0).session()), ("generator",), "rng")]
        methods += [(cls, MODEL_METHODS, "models") for cls in _subclasses(fkcore.FKModel)]
        methods += [(cls, TWIST_METHODS, "twists") for cls in _subclasses(twists.TwistFunction)]
        for cls, names, layer in methods:
            for meth in names:
                if meth in cls.__dict__:
                    self._patch_attr(cls, meth, self._wrap(f"{layer}.{meth}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), **self.arrays())

