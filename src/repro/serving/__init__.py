"""Multi-instance serving simulation on top of the cycle-level model.

The single-instance layers answer "one inference takes X ms"; this
package answers the deployment question above it: *how does a fleet of
N runtime-reprogrammable instances behave under an open-loop request
stream?*  It is a discrete-event simulator with

* seedable workload generators (:mod:`.workload`),
* batching policies + the batched service-time kernel (:mod:`.batching`),
* dispatch schedulers including model-affinity (:mod:`.scheduler`),
* the event-driven cluster itself (:mod:`.cluster`),
* metrics / SLO attainment / capacity planning (:mod:`.slo`),
* paper-style text reports (:mod:`.report`).

Quickstart::

    from repro import ProTEA, SynthParams
    from repro.serving import (ModelMix, PoissonArrivals, simulate,
                               summarize)

    accel = ProTEA.synthesize(SynthParams())
    reqs = PoissonArrivals(500, ModelMix("model2-lhc-trigger"),
                           seed=0).generate(1_000)
    report = summarize(simulate(accel, reqs, n_instances=4))
    print(report.throughput_rps, report.p99_ms)
"""

from .batching import (
    BatchingPolicy,
    ServiceTimeModel,
    fixed_size,
    get_batching,
    no_batching,
    timeout,
)
from .cluster import (
    ClusterSimulator,
    InstanceStats,
    RequestRecord,
    RequestRecords,
    SimulationResult,
    simulate,
)
from .generation import (
    GenerationClusterSimulator,
    GenerationInstanceStats,
    GenerationRecord,
    GenerationServiceModel,
    GenerationSimulationResult,
    simulate_generation,
)
from .report import (
    render_capacity_plan,
    render_generation_report,
    render_serving_report,
)
from .scheduler import (
    SCHEDULERS,
    LeastLoaded,
    ModelAffinity,
    RoundRobin,
    Scheduler,
    get_scheduler,
)
from .slo import (
    CapacityPlan,
    GenerationServingReport,
    ModelMetrics,
    ServingReport,
    percentile,
    plan_capacity,
    summarize,
    summarize_generation,
)
from .workload import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    GenerationRequest,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    Request,
    TraceReplay,
    attach_generation_lengths,
    attach_priorities,
)

__all__ = [
    # workload
    "Request", "GenerationRequest", "LengthSampler", "ModelMix",
    "ArrivalProcess", "PoissonArrivals", "BurstyArrivals",
    "DiurnalArrivals", "TraceReplay", "attach_generation_lengths",
    "attach_priorities",
    # batching
    "BatchingPolicy", "no_batching", "fixed_size", "timeout",
    "get_batching", "ServiceTimeModel",
    # scheduling
    "Scheduler", "RoundRobin", "LeastLoaded", "ModelAffinity",
    "SCHEDULERS", "get_scheduler",
    # cluster
    "ClusterSimulator", "simulate", "SimulationResult", "RequestRecord",
    "RequestRecords", "InstanceStats",
    # generation (token-level continuous batching)
    "GenerationClusterSimulator", "simulate_generation",
    "GenerationSimulationResult", "GenerationRecord",
    "GenerationInstanceStats", "GenerationServiceModel",
    # slo
    "percentile", "ModelMetrics", "ServingReport", "summarize",
    "GenerationServingReport", "summarize_generation",
    "CapacityPlan", "plan_capacity",
    # report
    "render_serving_report", "render_capacity_plan",
    "render_generation_report",
]
