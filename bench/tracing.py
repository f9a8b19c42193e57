"""Span tracing of the package from outside, for the traced run only.

``Tracer.install`` wraps the public entry points of each module (and the
names other modules imported them under) with a recorder; ``uninstall``
puts the originals back. A span is (id, parent, op, layer, name, start,
end) on the monotonic clock, which forked processes share. The spans of
one op share the id of the op's root span in that process. Spans stay in
memory; ``write`` saves them when the run ends.

The trusted child is forked while the wrappers are installed, so it
records its own spans. The wrapper on ``TrustedRuntime.handle_close``
saves them to a file just before the child answers CLOSE, and
``collect_children`` merges those files into the parent's view.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from teebench import clock, runner, traffic
from teebench.boundary import context, protocol, regions, supplicant, tas, trusted

# ``pipe_read`` is read_message: framing plus the wait for the other side
LAYERS = ("runner", "boundary", "protocol", "pipe_read", "regions",
          "supplicant", "trusted", "traffic", "clock")

_TARGETS = (
    ("runner", runner, ("run_client",)),
    ("boundary", context.Context,
     ("open_session", "allocate_shared_region", "release_region", "finalize")),
    ("protocol", protocol, ("write_message",)),
    ("protocol", context, ("write_message",)),
    ("pipe_read", protocol, ("read_message",)),
    ("pipe_read", context, ("read_message",)),
    ("regions", regions.SharedRegion,
     ("read", "write", "window_read", "window_write", "release")),
    ("regions", regions.TrustedRegionView, ("__init__", "read", "write", "revoke")),
    ("supplicant", supplicant.Supplicant, ("service",)),
    ("trusted", trusted.TrustedRuntime, ("handle_open", "handle_invoke")),
    ("trusted", trusted.TeeSocket, ("send", "recv", "ioctl", "close")),
    ("trusted", trusted.TrustedEnv, ("open_socket",)),
    ("traffic", runner, ("run_measurement",)),
    ("traffic", tas, ("run_measurement",)),
    ("traffic", traffic, ("run_measurement", "fill_dummy_buffer")),
    ("traffic", traffic.DirectEnv, ("open_socket",)),
    ("clock", clock, ("inject_delay", "wait_until")),
)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._owner = os.getpid()
        self.installed = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------------

    def _after_fork(self) -> None:
        if self.installed:
            self.spans = []
            self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn):
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = spans._stack()
            sid = next(spans._ids)
            parent, op = stack[-1] if stack else (0, sid)
            stack.append((sid, op))
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
                spans.spans.append((sid, parent, op, layer, name, start, end))

        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for layer, owner, attrs in _TARGETS:
            for attr in attrs:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                self._patch(owner, attr,
                            self.wrap(layer, label, getattr(owner, attr)))

        # sessions and direct sockets are instances of private classes:
        # wrap them where the public factories hand them out
        def wrap_result(layer, methods):
            def factory_wrapper(factory):
                @functools.wraps(factory)
                def wrapped(*args, **kwargs):
                    obj = factory(*args, **kwargs)
                    for m in methods:
                        setattr(obj, m, self.wrap(
                            layer, f"{type(obj).__name__}.{m}", getattr(obj, m)))
                    return obj
                return wrapped
            return factory_wrapper

        self._patch(context.Context, "open_session", wrap_result(
            "boundary", ("invoke", "close"))(context.Context.open_session))
        self._patch(traffic.DirectEnv, "open_socket", wrap_result(
            "traffic", ("send",))(traffic.DirectEnv.open_socket))

        handle_close = self.wrap("trusted", "TrustedRuntime.handle_close",
                                 trusted.TrustedRuntime.handle_close)
        tracer = self

        @functools.wraps(handle_close)
        def close_and_save(*args, **kwargs):
            try:
                return handle_close(*args, **kwargs)
            finally:
                if os.getpid() != tracer._owner:
                    tracer.write(tracer.out_dir / f"child-{os.getpid()}.json")

        self._patch(trusted.TrustedRuntime, "handle_close", close_and_save)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.installed = False

    # -- output --------------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"pid": os.getpid(), "spans": self.spans}, f)

    def collect_children(self) -> list[dict]:
        """Load and delete the span files the trusted children saved."""
        found = []
        for path in sorted(self.out_dir.glob("child-*.json")):
            with open(path) as f:
                found.append(json.load(f))
            path.unlink()
        return found


def self_times(spans) -> dict[str, int]:
    """Nanoseconds of self time per layer: each span's duration minus the
    part its child spans cover."""
    child_total = defaultdict(int)
    for sid, parent, _, _, _, start, end in spans:
        if parent:
            child_total[parent] += end - start
    out = defaultdict(int)
    for sid, _, _, layer, _, start, end in spans:
        out[layer] += (end - start) - child_total[sid]
    return dict(out)
