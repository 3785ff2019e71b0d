"""Stand-ins for a measurement session and an optimizer in service tests.

A real sweep's timing is not deterministic; these fakes make queueing
and waiting behaviour controllable: :class:`GatedOptimizer` blocks every
sweep until the test opens its gate.
"""

import threading
import types

from repro.core.optimizer import DesignPoint, Selection
from repro.engine.session import SessionRegistry
from repro.engine.store import ArtifactStore
from repro.obs.tracer import NULL_TRACER


class StubSession:
    """The slice of SuiteMeasurement the scheduler touches."""

    def __init__(self):
        self.store = ArtifactStore()
        self.tracer = NULL_TRACER
        self.job_config = None
        self.executor = types.SimpleNamespace(
            shutdown=lambda: None, tracer=None, jobs=1
        )

    def attach_tracer(self, tracer):
        self.tracer = tracer
        self.executor.tracer = tracer

    def attach_jobs(self, job_config):
        self.job_config = job_config


def stub_registry():
    """A registry whose one scale, ``tiny``, is a :class:`StubSession`."""
    registry = SessionRegistry(scales={"tiny": 1500})
    registry.set("tiny", StubSession())
    return registry


class GatedOptimizer:
    """Stands in for DesignOptimizer; sweeps block until the gate opens."""

    gate = threading.Event()
    calls = []

    def __init__(self, session):
        self.session = session

    def sweep(self, configs):
        type(self).calls.append(list(configs))
        assert type(self).gate.wait(30), "test gate never opened"
        return [
            DesignPoint(config=c, cpi=1.5 + 0.1 * i, cycle_time_ns=2.0)
            for i, c in enumerate(configs)
        ]

    def select(self, configs, objective="tpi", **_budgets):
        points = tuple(self.sweep(configs))
        return Selection(
            objective=objective,
            points=points,
            eligible=points,
            frontier=points[:1],
            best=None,
        )
