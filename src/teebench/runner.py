"""One-call orchestration of measurement runs, native or behind the boundary.

A boundary run mirrors the client-application flow: initialize a context,
allocate two dynamic shared-memory areas (arguments in, metrics out) in
the configured sharing mode, open a session to the traffic application,
invoke it (blocking while relaying its socket calls) and read the metrics
back out of shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boundary import BoundaryError, BoundaryStats, initialize_context
from .boundary.protocol import TeeResult
from .boundary.tas import TrafficCommand, read_json, write_json
from .core import (
    Execution,
    KIB,
    RunConfig,
    SharedMode,
    TransferMetrics,
    validate_config,
)
from .traffic import run_measurement

_IO_REGION_SIZE = 16 * KIB
_PARTIAL_PAD = 4 * KIB  # a partial window starts this far into a larger area


class RunFailure(BoundaryError):
    """The trusted side reported a non-success code for the run."""

    def __init__(self, status: TeeResult):
        self.status = status
        super().__init__(f"trusted run failed with {status.name}")


@dataclass(frozen=True)
class RunResult:
    """What one client run measured: the ``transfer`` metrics, and the
    ``boundary_stats`` of its context for a boundary run (None for a
    direct one)."""

    transfer: TransferMetrics
    boundary_stats: BoundaryStats | None


def alloc_window_region(ctx, size: int, mode: SharedMode):
    """A region whose window is ``size`` bytes in any sharing mode."""
    if mode is SharedMode.PARTIAL:
        return ctx.allocate_shared_region(size + _PARTIAL_PAD, mode,
                                          offset=_PARTIAL_PAD)
    return ctx.allocate_shared_region(size, mode)


def run_client(cfg: RunConfig, *, transport: str = "process") -> RunResult:
    """Execute one client run per ``cfg.execution`` and return its results."""
    cfg = validate_config(cfg)
    if cfg.execution is Execution.DIRECT:
        return RunResult(run_measurement(cfg), None)

    ctx = initialize_context(switch_cost=cfg.switch_cost, transport=transport)
    args_region = alloc_window_region(ctx, _IO_REGION_SIZE, cfg.shared_mode)
    metrics_region = alloc_window_region(ctx, _IO_REGION_SIZE, cfg.shared_mode)
    try:
        write_json(args_region.window_write, cfg.to_dict())
        session = ctx.open_session("traffic")
        try:
            result = session.invoke(
                TrafficCommand.RUN, regions=(args_region, metrics_region)
            )
        finally:
            session.close()
        if result.status != TeeResult.SUCCESS:
            raise RunFailure(result.status)
        metrics = TransferMetrics.from_dict(read_json(metrics_region.window_read))
    finally:
        ctx.release_region(args_region)
        ctx.release_region(metrics_region)
    stats = ctx.stats
    ctx.finalize()
    return RunResult(metrics, stats)
