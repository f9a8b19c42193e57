import multiprocessing
import os
import tempfile

import pytest

from teebench.core import Protocol
from teebench.server import BenchmarkServer, ServerConfig

# Both boundary transports must behave identically; parametrize the
# cheap tests over them and keep the slow ones on a single transport.
TRANSPORTS = ("inline", "process")


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


@pytest.fixture(autouse=True)
def no_leaked_segments_or_children():
    """Fail a test that leaves a shared-memory segment or a child behind."""
    segments = _shm_segments()
    children = set(multiprocessing.active_children())
    yield
    leaked = _shm_segments() - segments
    alive = set(multiprocessing.active_children()) - children
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert not alive, f"leaked child processes: {alive}"


@pytest.fixture
def tcp_server():
    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as server:
        yield server


@pytest.fixture
def udp_server():
    cfg = ServerConfig(bind="127.0.0.1", port=0, protocol=Protocol.UDP,
                       udp_idle_timeout=0.3)
    with BenchmarkServer(cfg) as server:
        yield server


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param
