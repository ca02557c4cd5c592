"""Timing and counting wrappers installed on placeweave's module attributes.

Run as a child process, this module times one placeweave CLI command from
outside the program:

    python3 tracer.py PLAN.json -- CLI_ARGS...

PLAN.json names the source directory (``src``), the file the trace is
written to (``trace``), the functions to time (``spans``) and the hot
functions to count only (``counts``), each as ``module.function`` relative
to the ``placeweave`` package. The trace file holds the import time of the
package, every span as ``[name, parent, start, end, maxrss_kb]``, the call
counts, the targets that do not exist in this version of the program
(``absent``) and the command's exit code.

A wrapper replaces the function under every name any placeweave module binds
it to, so calls through ``from .network import read_network`` are seen too.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import threading
import time


class Tracer:
    """Installs wrappers on placeweave functions and restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, stack[-1] if stack else None, clock(), None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                record[4] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, spans: list[str], counts: list[str]) -> None:
        for target, make in [(t, self._span) for t in spans] + [(t, self._count) for t in counts]:
            module_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"placeweave.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            self._rebind(original, make(target, original))

    def _rebind(self, original, wrapped) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("placeweave"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._installed.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def call_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counts.items()}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py PLAN.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    start = time.perf_counter()
    import placeweave  # noqa: F401  (timed: the package import a user pays)

    import_s = time.perf_counter() - start
    from placeweave import cli

    tracer = Tracer()
    tracer.install(plan["spans"], plan["counts"])
    rc = None
    try:
        rc = cli.main(argv[2:])
    finally:
        doc = {
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.call_counts(),
            "absent": tracer.absent,
            "rc": rc,
        }
        with open(plan["trace"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
