import importlib
import os
import socket
import sys
import tempfile
from pathlib import Path

import pytest

from teebench.core import Protocol
from teebench.server import BenchmarkServer, ServerConfig

# Both boundary transports must behave identically; parametrize the
# cheap tests over them and keep the slow ones on a single transport.
TRANSPORTS = ("inline", "process")


REPO_DIR = Path(__file__).resolve().parent.parent


def _import_from(directory: str, name: str):
    """Import module ``name`` from the repo's ``directory`` (``tools`` or
    ``bench``), leaving ``sys.path`` as it was."""
    path = str(REPO_DIR / directory)
    sys.path.insert(0, path)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(path)


@pytest.fixture(scope="session")
def import_from():
    """``import_from(directory, name)``: a script module of the repo's
    ``tools/`` or ``bench/``, which are not packages."""
    return _import_from


SHM_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _shm_segments() -> set[str]:
    """Named segments in SHM_DIR plus this process's fds (a region's own
    and any mapping's) on teebench memfd memory, as ``fd <n>: <link>``."""
    segments = {n for n in os.listdir(SHM_DIR) if n.startswith("teebench-shm-")}
    for fd in os.listdir("/proc/self/fd"):
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the fd listdir itself held
            continue
        if link.startswith("/memfd:teebench"):
            segments.add(f"fd {fd}: {link}")
    return segments


@pytest.fixture
def shm_segments():
    return _shm_segments


def _children() -> set[int]:
    """Pids whose parent is this process, zombies included."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # exited since the listing
            continue
        # fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.add(int(entry))
    return pids


@pytest.fixture(autouse=True)
def no_leaked_segments_or_children():
    """Fail a test that leaves a shared-memory segment or a child, live or
    unreaped, behind."""
    segments = _shm_segments()
    children = _children()
    yield
    leaked = _shm_segments() - segments
    alive = _children() - children
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert not alive, f"leaked child processes: {alive}"


@pytest.fixture
def tcp_server():
    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as server:
        yield server


@pytest.fixture
def udp_server(monkeypatch):
    monkeypatch.setattr("teebench.server.UDP_IDLE_TIMEOUT", 0.3)
    cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=Protocol.UDP)
    with BenchmarkServer(cfg) as server:
        yield server


UNRESOLVABLE = "no-such-host.invalid"  # never resolves (RFC 6761)


@pytest.fixture
def unresolvable(monkeypatch):
    """``UNRESOLVABLE``, failing as the resolver fails, with no query made:
    ``socket.getaddrinfo`` (which ``create_connection`` calls) and a
    socket's ``connect`` (which resolves in C) raise ``gaierror`` for it."""
    failure = socket.gaierror(socket.EAI_AGAIN,
                              "Temporary failure in name resolution")
    getaddrinfo, connect = socket.getaddrinfo, socket.socket.connect

    def fake_getaddrinfo(host, *args, **kwargs):
        if host == UNRESOLVABLE:
            raise failure
        return getaddrinfo(host, *args, **kwargs)

    def fake_connect(self, address):
        if address[0] == UNRESOLVABLE:
            raise failure
        return connect(self, address)

    monkeypatch.setattr(socket, "getaddrinfo", fake_getaddrinfo)
    monkeypatch.setattr(socket.socket, "connect", fake_connect)
    return UNRESOLVABLE


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param
