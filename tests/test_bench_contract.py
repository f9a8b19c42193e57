"""What ``bench/`` relies on in the package, checked from the unit suite.

The benchmark's tracer wraps named attributes in place and saves the
trusted child's spans from inside ``TrustedRuntime.handle_close``, so a
rename or a moved method breaks the traced run without failing a unit
test. These tests pin those names and that call path.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

from teebench import traffic
from teebench.boundary import context, initialize_context, supplicant, trusted
from teebench.boundary.tas import ProbeCommand

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_every_traced_attribute_is_defined_where_it_is_patched(tracing):
    targets = [(owner, attr) for _, owner, attrs in tracing._TARGETS
               for attr in attrs]
    targets += [
        (trusted.TrustedRuntime, "handle_close"),
        (context.Context, "open_session"),
        (traffic.DirectEnv, "open_socket"),
    ]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if attr not in vars(owner)]
    assert not missing


def test_the_pipe_framing_is_looked_up_in_the_context_module():
    assert "read_message" in vars(context)
    assert "write_message" in vars(context)


def test_close_reaches_a_patched_handle_close_before_it_returns(
        transport, monkeypatch, tmp_path):
    # a class-level wrapper, installed before the fork, runs in the
    # trusted process too; its mark must exist once close() returns
    marks = tmp_path / "closed"
    original = trusted.TrustedRuntime.handle_close

    def marking_close(self):
        with open(marks, "a") as f:
            f.write(f"{os.getpid()}\n")
        return original(self)

    monkeypatch.setattr(trusted.TrustedRuntime, "handle_close", marking_close)
    ctx = initialize_context(transport=transport)
    session = ctx.open_session("probe")
    session.close()
    ctx.finalize()
    assert marks.read_text().count("\n") == 1


def test_every_relayed_frame_passes_the_traced_names(monkeypatch):
    # the tracer sees a relayed call only through these three names; a
    # frame sent or served around them would vanish from the self times
    sends = 5
    ctx = initialize_context(transport="process")
    session = ctx.open_session("probe")
    calls = {"read_message": 0, "write_message": 0, "service": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("read_message", "write_message"):
        monkeypatch.setattr(context, name, counting(name, getattr(context, name)))
    monkeypatch.setattr(supplicant.Supplicant, "service",
                        counting("service", supplicant.Supplicant.service))
    try:
        result = session.invoke(ProbeCommand.SEND_DISCARD, values=(sends, 1024))
    finally:
        monkeypatch.undo()
        session.close()
        ctx.finalize()
    assert result.values == (sends * 1024,)
    assert calls == {"read_message": sends + 1, "write_message": sends + 1,
                     "service": sends}
