"""The paper's primary contribution: the region inference engine.

* :mod:`repro.core.schemes` -- class region annotation and method schemes.
* :mod:`repro.core.subtyping` -- the three region-subtyping modes (Sec 3.2).
* :mod:`repro.core.depgraph` -- the global dependency graph (Sec 4.3).
* :mod:`repro.core.infer` -- the inference rules of Fig 3 with [letreg]
  localisation and region-polymorphic recursion.
* :mod:`repro.core.override` -- override conflict resolution (Sec 4.4).
* :mod:`repro.core.downcast` -- downcast safety analysis (Sec 5).
"""

from .depgraph import DependencyGraph, diff
from .downcast import DowncastAnalysis, DowncastStrategy, PaddingPlan, analyse_downcasts
from .infer import (
    AnnotatedProgram,
    InferenceConfig,
    InferenceResult,
    MethodRecord,
    RegionInference,
    infer_program,
    infer_source,
    plan_salts,
    reinfer_program,
    scc_splice_keys,
)
from .override import OverrideConflict, OverrideResolver, check_override
from .schemes import ClassAnnotation, ClassAnnotator, InferenceError, MethodScheme
from .subtyping import SubtypingMode, subtype

__all__ = [
    "DependencyGraph",
    "diff",
    "DowncastAnalysis",
    "DowncastStrategy",
    "PaddingPlan",
    "analyse_downcasts",
    "AnnotatedProgram",
    "InferenceConfig",
    "InferenceResult",
    "MethodRecord",
    "RegionInference",
    "infer_program",
    "infer_source",
    "plan_salts",
    "reinfer_program",
    "scc_splice_keys",
    "OverrideConflict",
    "OverrideResolver",
    "check_override",
    "ClassAnnotation",
    "ClassAnnotator",
    "InferenceError",
    "MethodScheme",
    "SubtypingMode",
    "subtype",
]
