"""What ``bench/`` relies on in the package, checked from the unit suite.

The benchmark's tracer wraps named attributes in place and saves the
trusted child's spans from inside ``TrustedRuntime.handle_close``, so a
rename or a moved method breaks the traced run without failing a unit
test. Every run, traced or not, imports ``layers``, which takes the
invoke codec and the pipe framing from ``protocol`` by name. These tests
pin those names and that call path.
"""

import os

import pytest

from teebench import traffic
from teebench.boundary import context, initialize_context, supplicant, trusted
from teebench.boundary.tas import ProbeCommand
from teebench.core import KIB, SharedMode


@pytest.fixture(scope="module")
def tracing(import_from):
    return import_from("bench", "tracing")


@pytest.fixture(scope="module")
def layers(import_from):
    # every bench run imports it, for its floor calibration, so a name it
    # takes from the package that is gone fails every run
    return import_from("bench", "layers")


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


def test_the_layer_probes_that_use_the_codec_run(layers):
    # the expressions of ``protocol.invoke_body_us`` and
    # ``supplicant.service_discard_us``, once each, through the names
    # ``layers`` imported
    ctx = initialize_context(transport="inline")
    region = ctx.allocate_shared_region(KIB, SharedMode.WHOLE)
    supplicant = layers.Supplicant()
    try:
        desc = region.descriptor
        assert layers.unpack_invoke_body(layers.pack_invoke_body(
            2, [desc], (1, 2, 3))) == (2, [desc], (1, 2, 3))
        msg = layers.Message(layers.Command.SOCK_SEND, region.region_id, 0,
                             KIB, layers.DISCARD_HANDLE)
        assert supplicant.service(msg, {region.region_id: region}) == KIB
    finally:
        supplicant.release()
        ctx.release_region(region)
        ctx.finalize()
