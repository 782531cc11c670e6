"""repro: reproduction of "Understanding Capacity-Driven Scale-Out Neural
Recommendation Inference" (Lui et al., ISPASS 2021).

The package provides, as importable subsystems (``import repro`` loads
none of them: each package's exports load on first attribute access,
see :mod:`repro._lazy`):

* :mod:`repro.models` -- the DRM1/DRM2/DRM3 synthetic model zoo;
* :mod:`repro.core` -- operator graphs and real numeric DLRM execution;
* :mod:`repro.sharding` -- capacity-driven sharding strategies and the
  model partitioner;
* :mod:`repro.requests` -- production-like request synthesis and replay;
* :mod:`repro.simulation` -- the discrete-event kernel, platforms,
  network fabric, and calibrated cost model;
* :mod:`repro.serving` -- the simulated distributed serving stack;
* :mod:`repro.planning` -- SLA policies, replication/elasticity sizing,
  and the closed-loop SLA-driven deployment search
  (:class:`~repro.planning.capacity.CapacityPlanner`);
* :mod:`repro.tracing` -- the cross-layer distributed tracing framework;
* :mod:`repro.compression` -- row-wise quantization and pruning;
* :mod:`repro.analysis` / :mod:`repro.experiments` -- quantile analysis
  and the per-figure experiment harness.

Quickstart::

    from repro.models import drm1
    from repro.experiments import run_suite, figures

    results = run_suite(drm1())
    print(figures.fig6_overheads(results, "DRM1").text)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.configs": ("paper_configurations",),
        "repro.experiments.figures": ("figures",),
        "repro.experiments.runner": (
            "RunResult",
            "SuiteSettings",
            "run_configuration",
            "run_suite",
        ),
        "repro.models.zoo": ("build", "drm1", "drm2", "drm3"),
        "repro.serving.simulator": ("ClusterSimulation", "ServingConfig"),
        "repro.sharding.plan": ("ShardingPlan", "singular_plan"),
        "repro.sharding.pooling": ("estimate_pooling_factors",),
        "repro.sharding.strategies": ("STRATEGIES",),
    },
)
__all__ = list(_EXPORTS)
