"""Scheme comparisons over Table 1 applications: the metrics layer.

A :class:`ComparisonResult` holds every scheme's outcome on one
comparison cell (app, seed, trace scale). Comparisons come from
executing an :class:`~repro.runtime.spec.ExperimentPlan` and regrouping
its runs::

    plan = ExperimentPlan.single("App1", ["baseline", "qismet"], 300, seed=7)
    comp = executor_for().run_plan(plan).comparison("App1")

``REPRO_EXECUTOR`` picks the executor and ``REPRO_STORE`` reuses
previously computed runs. All schemes of one cell share the transient
trace, starting point and SPSA perturbation sequence, while backend
shot-noise streams are derived per scheme, mirroring the paper's
synchronous paired-comparison methodology — see
:mod:`repro.runtime.execute` for the exact contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.experiments.metrics import expectation_ratio, improvement_rel_baseline
from repro.vqa.result import VQEResult


@dataclass
class ComparisonResult:
    """All schemes' outcomes on one application."""

    app_name: str
    ground_truth: float
    results: Dict[str, VQEResult] = field(default_factory=dict)

    def improvements(
        self,
        baseline: str = "baseline",
        tail_fraction: float = 0.15,
        use_true_energy: bool = True,
    ) -> Dict[str, float]:
        """Per-scheme expectation ratios vs the baseline (the paper's
        "VQE Expectation rel. Baseline").

        Uses the transient-free energy of the accepted parameters, which
        preserves the paper's orderings with much less run-to-run variance
        than raw machine estimates (whose tails are contaminated by
        whichever transient hit the final jobs). Pass
        ``use_true_energy=False`` for the machine-measured expectation the
        paper's hardware figures necessarily plot.
        """
        return expectation_ratio(
            self.results, baseline=baseline,
            tail_fraction=tail_fraction, use_true_energy=use_true_energy,
        )

    def progress_improvements(
        self, baseline: str = "baseline", tail_fraction: float = 0.15
    ) -> Dict[str, float]:
        """Gap-closed progress ratios (alternative, variance-prone metric)."""
        return improvement_rel_baseline(
            self.results, self.ground_truth, baseline=baseline,
            tail_fraction=tail_fraction,
        )

    def final_energies(self) -> Dict[str, float]:
        return {
            name: result.tail_true_energy()
            for name, result in self.results.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "ground_truth": float(self.ground_truth),
            "results": {
                name: result.to_dict() for name, result in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComparisonResult":
        return cls(
            app_name=data["app_name"],
            ground_truth=float(data["ground_truth"]),
            results={
                name: VQEResult.from_dict(payload)
                for name, payload in data.get("results", {}).items()
            },
        )


def geomean_improvements(
    comparisons: Sequence[ComparisonResult],
    baseline: str = "baseline",
) -> Dict[str, float]:
    """Geometric-mean improvement per scheme across applications (Fig. 17)."""
    if not comparisons:
        raise ValueError("no comparisons")
    schemes = set.intersection(*(set(c.results) for c in comparisons))
    out: Dict[str, float] = {}
    for scheme in sorted(schemes):
        ratios = [c.improvements(baseline)[scheme] for c in comparisons]
        out[scheme] = float(np.exp(np.mean(np.log(ratios))))
    return out
