"""The sharded scan tier, assembled: supervisor + router in one process.

``repro cluster --model m --shards N`` (or ``repro serve --shards N``)
boots:

* N **scan shards** — ordinary ``repro serve`` daemons on loopback
  ports, sharing one on-disk feature cache, owned by a
  :class:`~repro.serve.supervisor.ShardSupervisor`,
* one **router** — the only listener clients see
  (:class:`~repro.serve.router.ScanRouter`), consistent-hashing scans
  across the shards and retrying around failures.

The controller owns startup order (shards ready before the router
listens) and teardown order (router first, so no request arrives at a
half-dismantled fleet), plus the optional **autoscale loop**: when the
config carries an :class:`~repro.serve.autoscale.AutoscaleConfig`, a
background task feeds fleet snapshots to the
:class:`~repro.serve.autoscale.Autoscaler` and applies its decisions —
spawn a shard and add it to the router's ring, or pull a shard *out of
the ring first* and then retire it (no request may be routed to a shard
being torn down).  :func:`run_cluster` and :class:`BackgroundCluster`
run it under the same lifecycles as a single daemon
(:func:`~repro.serve.service.run_until_signaled`,
:class:`~repro.serve.service.BackgroundService`).
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field

from repro.obs import MetricsRegistry, get_logger

from .autoscale import HOLD, SCALE_DOWN, SCALE_UP, AutoscaleConfig, Autoscaler
from .router import RouterConfig, ScanRouter
from .service import BackgroundService, run_until_signaled
from .supervisor import ShardSupervisor


@dataclass
class ClusterConfig:
    """Knobs for the whole tier; mirrors the ``repro cluster`` CLI flags."""

    model_dir: str = ""
    n_shards: int = 2
    host: str = "127.0.0.1"
    port: int = 8076  # router port; 0 = ephemeral
    #: Shard bind/dial host; ``None`` = same as ``host``.  ``--bind
    #: 127.0.0.1`` keeps shards loopback-only while the router listens
    #: on an outward interface.
    bind: str | None = None
    cache_dir: str | None = None  # disk cache every shard reads and writes
    shard_args: list[str] = field(default_factory=list)  # extra `repro serve` flags
    router: RouterConfig = field(default_factory=RouterConfig)
    #: ``None`` = fixed fleet; set to enable queue-depth autoscaling
    #: between ``autoscale.min_shards`` and ``autoscale.max_shards``.
    autoscale: AutoscaleConfig | None = None
    health_interval_s: float = 0.5
    ready_timeout_s: float = 120.0
    restart_backoff_s: float = 0.5
    restart_backoff_max_s: float = 30.0
    restart_budget: int = 5
    crash_loop_retry_s: float = 300.0

    def validate(self) -> None:
        if not self.model_dir:
            raise ValueError("model_dir is required")
        if self.n_shards < 1:
            raise ValueError("n_shards must be positive")
        self.router.validate()
        if self.autoscale is not None:
            self.autoscale.validate()
            if not (self.autoscale.min_shards <= self.n_shards <= self.autoscale.max_shards):
                raise ValueError(
                    "initial n_shards must lie within [min_shards, max_shards]"
                )


class ClusterController:
    """Boots and tears down one supervisor + router pair."""

    def __init__(self, config: ClusterConfig, metrics: MetricsRegistry | None = None):
        config.validate()
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.log = get_logger("cluster")
        self.supervisor = ShardSupervisor(
            model_dir=config.model_dir,
            n_shards=config.n_shards,
            host=config.host,
            bind=config.bind,
            cache_dir=config.cache_dir,
            shard_args=config.shard_args,
            metrics=self.metrics,
            health_interval_s=config.health_interval_s,
            ready_timeout_s=config.ready_timeout_s,
            restart_backoff_s=config.restart_backoff_s,
            restart_backoff_max_s=config.restart_backoff_max_s,
            restart_budget=config.restart_budget,
            crash_loop_retry_s=config.crash_loop_retry_s,
        )
        router_config = config.router
        router_config.host = config.host
        router_config.port = config.port
        self.router = ScanRouter(self.supervisor, router_config, metrics=self.metrics)
        self.autoscaler: Autoscaler | None = (
            Autoscaler(config.autoscale, metrics=self.metrics)
            if config.autoscale is not None
            else None
        )
        if self.autoscaler is not None:
            # /v1/status reports autoscaler posture through this hook —
            # the router never imports the autoscaler directly.
            self.router.autoscale_status = self.autoscaler.status
        self._autoscale_task: asyncio.Task | None = None

    @property
    def bound_port(self) -> int | None:
        return self.router.bound_port

    async def start(self) -> None:
        try:
            await self.supervisor.start()
        except BaseException:
            await self.supervisor.stop()
            raise
        await self.router.start()
        if self.autoscaler is not None:
            self._autoscale_task = asyncio.create_task(self._autoscale_loop())

    async def stop(self) -> None:
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._autoscale_task
            self._autoscale_task = None
        await self.router.stop()
        await self.supervisor.stop()

    async def _autoscale_loop(self) -> None:
        assert self.autoscaler is not None
        interval = self.autoscaler.config.interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                decision = self.autoscaler.observe(self.supervisor.snapshot())
                if decision == HOLD:
                    continue
                await self.apply_scale(decision)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # the loop must outlive one bad tick
                self.log.warning("autoscale tick failed", extra={"error": repr(error)})

    async def apply_scale(self, decision: int) -> str | None:
        """Apply one autoscaler decision; returns the affected shard id.

        Ordering is load-bearing: on scale-up the shard is ready *before*
        the ring learns about it; on scale-down the ring stops routing to
        the shard *before* it is terminated — either way no request is
        ever routed at a shard that cannot serve.
        """
        if decision == SCALE_UP:
            shard_id = await self.supervisor.add_shard()
            self.router.sync_ring()
            self.log.info("scaled up", extra={"shard": shard_id})
            return shard_id
        if decision == SCALE_DOWN:
            shard_id = self.supervisor.pick_removal()
            if shard_id is None:
                return None
            self.router.ring.remove(shard_id)
            await self.supervisor.remove_shard(shard_id)
            self.log.info("scaled down", extra={"shard": shard_id})
            return shard_id
        return None


def run_cluster(config: ClusterConfig) -> int:
    """Blocking entry point used by the CLI; returns the exit code."""
    controller = ClusterController(config)
    return run_until_signaled(
        controller,
        lambda: (
            f"repro.cluster router on http://{config.host}:{controller.bound_port} "
            f"({config.n_shards} shards)"
        ),
        "repro.cluster stopping…",
    )


class BackgroundCluster(BackgroundService):
    """A whole cluster on a daemon thread — tests, benches, and notebooks.

    Usage::

        with BackgroundCluster(ClusterConfig(model_dir=..., n_shards=2, port=0)) as cluster:
            ScanClient(cluster.url).scan("alert(1)")
    """

    what = "cluster"
    start_timeout_s = 300.0  # shard boot includes a model load per shard
    join_timeout_s = 60.0

    def __init__(self, config: ClusterConfig):
        super().__init__(config)
        self.controller: ClusterController | None = None

    def call_soon(self, fn, *args) -> None:
        """Run ``fn`` on the cluster's event loop (tests poking internals)."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(fn, *args)

    def _build(self) -> ClusterController:
        self.controller = ClusterController(self.config)
        return self.controller
