"""Span tracing around each layer's public entry points, from outside.

The program under test carries no spans of its own for this benchmark:
:class:`Tracer` patches the entry points listed in :data:`LAYERS` for the
length of one traced pass and restores them afterwards.  Every call
through a patched entry point records one span (layer, entry point,
start, end, parent span, op id, raised?) in memory; the spans are
written out when the pass ends.

A layer's *self time* is its spans' durations minus the part of each
interval their child spans cover.  Calls are synchronous and the load
is single-threaded, so a span's children run one after another inside
it and the covered part is simply the sum of the children's durations.
By that definition the self times of all spans add up to the root
spans' time, and ``other`` is the rest of the traced wall total.  What
can go wrong is the span tree itself, so :meth:`Tracer.report` checks
that every span closed, lies inside its parent (a root span inside one
of the driver's timed windows), does not start before its previous
sibling ends, and has no negative self time.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

#: Chirp client calls a workload may make, wrapped on ChirpClient and
#: (where it has them) FederatedClient.
CLIENT_OPS = (
    "whoami", "open", "close_fd", "pread", "pwrite", "fstat", "ftruncate",
    "stat", "lstat", "access", "readdir", "readlink", "mkdir", "rmdir",
    "unlink", "rename", "symlink", "link", "truncate", "getacl", "setacl",
    "aclcheck", "put", "get", "batch", "exec",
)


def _layer_table() -> list[tuple[str, list[tuple[Any, tuple[str, ...]]]]]:
    """(layer, [(owner, entry points)]) for every layer; imported lazily so
    the benchmark can report a missing program before touching it."""
    from repro.chirp import client, federation, server
    from repro.core import aclfs, pipeline
    from repro.interpose import iochannel, supervisor
    from repro.kernel import machine, ptrace, vfs
    from repro.net import network, rpc

    return [
        ("kernel.machine", [(machine.Machine, ("run_to_completion", "kcall", "kcall_x"))]),
        ("kernel.cow", [(machine.Machine, ("snapshot", "fork", "restore"))]),
        ("kernel.vfs", [(vfs.VFS, ("resolve",))]),
        ("kernel.ptrace", [(ptrace.TraceSession, (
            "peek_regs", "poke_regs", "peek_bytes", "poke_bytes",
            "peek_string_cost", "set_result", "nullify", "rewrite",
        ))]),
        ("interpose.supervisor", [(supervisor.Supervisor, ("on_syscall_entry", "on_syscall_exit"))]),
        ("interpose.iochannel", [(iochannel.IOChannel, (
            "stage", "stage_mapped", "read_back", "read_back_mapped",
        ))]),
        ("core.pipeline", [
            (pipeline.Pipeline, ("run",)),
            (pipeline.IdentityGate, ("__call__",)),
            (pipeline.ReadCache, ("__call__",)),
            (pipeline.AclFileGuard, ("__call__",)),
            (pipeline.ReferenceMonitor, ("__call__",)),
        ]),
        ("core.aclfs", [(aclfs.AclPolicy, ("check", "rights_in", "acl_of"))]),
        ("net.network", [(network.Connection, ("call",))]),
        ("net.rpc", [(rpc, ("encode_message", "decode_message"))]),
        ("chirp.client", [(client.ChirpClient, CLIENT_OPS)]),
        ("chirp.server", [(server._Connection, ("handle",))]),
        ("chirp.federation", [(federation.FederatedClient, tuple(
            op for op in CLIENT_OPS if op in vars(federation.FederatedClient)
        ))]),
    ]


#: Layer names in report order (the module each entry point lives in).
LAYERS = (
    "kernel.machine", "kernel.cow", "kernel.vfs", "kernel.ptrace",
    "interpose.supervisor", "interpose.iochannel", "core.pipeline",
    "core.aclfs", "net.network", "net.rpc", "chirp.client", "chirp.server",
    "chirp.federation",
)

#: Span record fields, by position (lists, not objects: a traced pass
#: records hundreds of thousands of them).
LAYER, NAME, START, END, PARENT, OP, ERROR = range(7)


@dataclass
class LayerTotals:
    calls: int = 0
    self_ns: int = 0
    errors: int = 0


@dataclass
class TraceReport:
    """Per-layer totals of one traced pass, and the checks on its spans."""

    layers: dict[str, LayerTotals] = field(default_factory=dict)
    self_total_ns: int = 0
    wall_ns: int = 0
    #: spans that broke the tree, by what they broke
    problems: dict[str, int] = field(default_factory=dict)

    @property
    def other_ns(self) -> int:
        """Traced wall time no span covers (the benchmark's own glue and
        program code between entry points)."""
        return self.wall_ns - self.self_total_ns

    def consistent(self) -> bool:
        """Every span is well nested, and the spans fit in the wall total."""
        return not any(self.problems.values()) and self.other_ns >= 0


class Tracer:
    """Records spans while its patches are installed and ``recording``
    is on."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: id shared by every span of one benchmark op; the driver bumps it
        self.op_id = 0
        #: spans are recorded only inside the driver's timed windows, so
        #: oracle checks between windows leave no trace
        self.recording = False
        #: the timed windows, as (start ns, end ns)
        self.windows: list[tuple[int, int]] = []
        self._opened = 0

    def open_window(self) -> None:
        self.op_id += 1
        self.recording = True
        self._opened = time.perf_counter_ns()

    def close_window(self) -> None:
        self.windows.append((self._opened, time.perf_counter_ns()))
        self.recording = False

    def _wrap(self, fn: Callable[..., Any], layer: int, name: str) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            record = [layer, name, 0, 0, stack[-1] if stack else -1, tracer.op_id, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every entry point; restore the originals on exit."""
        patches: list[tuple[Any, str, Any]] = []
        try:
            for layer, owners in _layer_table():
                index = LAYERS.index(layer)
                for owner, names in owners:
                    for name in names:
                        original = vars(owner)[name]
                        wrapped = self._wrap(original, index, name)
                        for target in _binding_sites(owner, name, original):
                            patches.append((target, name, original))
                            setattr(target, name, wrapped)
            yield self
        finally:
            for target, name, original in reversed(patches):
                setattr(target, name, original)

    def report(self, wall_ns: int) -> TraceReport:
        """Per-layer totals over ``wall_ns`` of traced wall time.  Spans are
        in start order, so a parent precedes its children and each
        sibling follows the previous one."""
        spans = self.spans
        child_ns = [0] * len(spans)
        #: where the previous child of each span (or window) ended
        last_end: dict[int, int] = {}
        unclosed = escaped = overlapping = 0
        windows = iter(self.windows)
        window = next(windows, None)
        for record in spans:
            start, end, parent = record[START], record[END], record[PARENT]
            if end == 0:
                unclosed += 1
                continue
            if parent >= 0:
                child_ns[parent] += end - start
                bounds = spans[parent][START], spans[parent][END]
            else:
                # a root span's parent is the timed window it started in
                while window is not None and window[1] < start:
                    window = next(windows, None)
                bounds = window or (0, -1)
                parent = -1 - bounds[0]
            escaped += not (bounds[0] <= start <= end <= bounds[1])
            overlapping += start < last_end.get(parent, start)
            last_end[parent] = end
        out = TraceReport(
            layers={layer: LayerTotals() for layer in LAYERS},
            wall_ns=wall_ns,
            problems={
                "span never closed": unclosed,
                "span outside its parent or timed window": escaped,
                "span starts before its previous sibling ends": overlapping,
            },
        )
        negative = 0
        for record, covered in zip(spans, child_ns):
            totals = out.layers[LAYERS[record[LAYER]]]
            self_ns = record[END] - record[START] - covered
            negative += self_ns < 0
            totals.calls += 1
            totals.self_ns += self_ns
            totals.errors += record[ERROR]
            out.self_total_ns += self_ns
        out.problems["span with negative self time"] = negative
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: layer, entry point, start ns, end ns,
        parent span index (-1 for a root), op id, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps([LAYERS[record[LAYER]], *record[NAME:]]))
                out.write("\n")


def _binding_sites(owner: Any, name: str, original: Any) -> list[Any]:
    """Where ``original`` is bound under ``name``: the owner itself and,
    for a module-level function, every loaded module of the program that
    imported it by name."""
    if not isinstance(owner, type(sys)):
        return [owner]
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "repro"
        and getattr(module, name, None) is original
    ]
