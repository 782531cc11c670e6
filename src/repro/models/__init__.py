"""Model zoo: DLRM-like model configs calibrated to the paper's DRM1/2/3."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "FeatureScope",
            "ModelConfig",
            "NetConfig",
            "RequestProfile",
            "TableConfig",
        ),
        "growth": ("GrowthPoint", "growth_factor", "growth_series"),
        "synthesis": (
            "TablePopulationSpec",
            "dominant_table_population",
            "synthesize_tables",
        ),
        "zoo": ("MODEL_FACTORIES", "build", "drm1", "drm2", "drm3"),
    },
)
__all__ = list(_EXPORTS)
