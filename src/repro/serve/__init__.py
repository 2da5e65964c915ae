"""Serving layer: asyncio scan daemon, micro-batching, and the sharded tier.

Public surface::

    from repro.serve import ScanServer, ServeConfig, run_server, BackgroundServer

    # blocking daemon (the `repro serve` CLI command):
    run_server(load_detector("model"), ServeConfig(port=8077, max_batch=8))

    # embedded (tests / benches / notebooks):
    with BackgroundServer(detector, ServeConfig(port=0)) as server:
        ...POST to server.url...

    # the sharded tier (the `repro cluster` CLI command):
    from repro.serve import ClusterConfig, run_cluster, BackgroundCluster
    run_cluster(ClusterConfig(model_dir="model", n_shards=4))

Every endpoint is mounted under ``/v1`` with one response envelope (see
:mod:`repro.serve.api` and API.md); any other path is a 404.  The daemon
and the router both run on :mod:`repro.serve.service` (connection loop,
route table, rendering, request counters, ``/debug`` endpoints, and the
signal and background-thread lifecycles).  See :mod:`repro.serve.app` for endpoint
and backpressure semantics, :mod:`repro.serve.batching` for the
micro-batching queue, :mod:`repro.serve.router` /
:mod:`repro.serve.supervisor` / :mod:`repro.serve.cluster` for the
sharded tier, and :mod:`repro.serve.loadgen` for the stdlib load
generator.
"""

from .api import API_VERSION, V1_PREFIX, EnvelopeError, parse_envelope
from .app import BackgroundServer, ScanServer, ServeConfig, run_server
from .autoscale import HOLD, SCALE_DOWN, SCALE_UP, AutoscaleConfig, Autoscaler
from .batching import Draining, MicroBatcher, QueueFull
from .cluster import BackgroundCluster, ClusterConfig, ClusterController, run_cluster
from .hashring import HashRing
from .loadgen import LoadReport, LoadResult, run_load
from .router import RouterConfig, ScanRouter
from .supervisor import ShardSpec, ShardSupervisor
from .vcache import VerdictCache

__all__ = [
    "API_VERSION",
    "AutoscaleConfig",
    "Autoscaler",
    "BackgroundCluster",
    "BackgroundServer",
    "ClusterConfig",
    "ClusterController",
    "Draining",
    "EnvelopeError",
    "HOLD",
    "HashRing",
    "LoadReport",
    "LoadResult",
    "MicroBatcher",
    "QueueFull",
    "RouterConfig",
    "SCALE_DOWN",
    "SCALE_UP",
    "ScanRouter",
    "ScanServer",
    "ServeConfig",
    "ShardSpec",
    "ShardSupervisor",
    "V1_PREFIX",
    "VerdictCache",
    "parse_envelope",
    "run_cluster",
    "run_load",
    "run_server",
]
