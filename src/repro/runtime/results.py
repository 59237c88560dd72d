"""Serializable run and plan results.

A :class:`RunResult` pairs a :class:`~repro.runtime.spec.RunSpec` with the
:class:`~repro.vqa.result.VQEResult` it produced; a :class:`PlanResult`
collects the runs of a whole plan and regroups them into the
:class:`~repro.experiments.runner.ComparisonResult` objects the metrics
layer consumes. Both round-trip losslessly through plain dicts (and hence
JSON), which is what lets results cross process boundaries and persist in
the experiment store (:mod:`repro.store`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.runtime.spec import RunSpec
from repro.vqa.result import VQEResult


@dataclass(eq=False)
class RunResult:
    """Outcome of executing one spec.

    ``elapsed_s`` and ``from_cache`` describe *how* the run was obtained,
    not *what* it computed — they are excluded from equality so a cached
    result compares equal to the freshly-executed one.
    """

    spec: RunSpec
    result: VQEResult
    ground_truth: float
    elapsed_s: float = 0.0
    from_cache: bool = False

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ground_truth == other.ground_truth
            and self.result.to_dict() == other.result.to_dict()
        )

    @property
    def run_id(self) -> str:
        return self.spec.run_id

    @property
    def app_name(self) -> str:
        return self.spec.app_name

    @property
    def scheme(self) -> str:
        return self.spec.scheme

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "result": self.result.to_dict(),
            "ground_truth": float(self.ground_truth),
            "elapsed_s": float(self.elapsed_s),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            result=VQEResult.from_dict(data["result"]),
            ground_truth=float(data["ground_truth"]),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


ComparisonKey = Tuple[str, int, float]


@dataclass
class PlanResult:
    """All runs of one executed plan, in plan-expansion order."""

    runs: List[RunResult] = field(default_factory=list)
    plan: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    @property
    def by_run_id(self) -> Dict[str, RunResult]:
        return {run.run_id: run for run in self.runs}

    @property
    def total_elapsed_s(self) -> float:
        return float(sum(run.elapsed_s for run in self.runs))

    @property
    def cache_hits(self) -> int:
        return sum(1 for run in self.runs if run.from_cache)

    # -- regrouping into the metrics layer ----------------------------------

    def comparisons(self) -> Dict[ComparisonKey, "ComparisonResult"]:
        """Regroup runs into per-cell scheme comparisons.

        Each ``(app, seed, trace_scale)`` cell of the plan shared a
        starting point and transient trace, so its schemes form exactly
        one paper-style comparison.
        """
        from repro.experiments.runner import ComparisonResult

        out: Dict[ComparisonKey, ComparisonResult] = {}
        for run in self.runs:
            key = run.spec.comparison_key
            if key not in out:
                out[key] = ComparisonResult(
                    app_name=run.app_name, ground_truth=run.ground_truth
                )
            if run.scheme in out[key].results:
                # e.g. an overrides sweep repeating one scheme per cell —
                # that regrouping is lossy, so refuse rather than silently
                # keep whichever run came last.
                raise ValueError(
                    f"cell {key} has multiple {run.scheme!r} runs; "
                    "comparisons() cannot regroup an overrides sweep — "
                    "pair specs with runs directly instead"
                )
            out[key].results[run.scheme] = run.result
        return out

    def comparison(
        self,
        app_name: str,
        seed: Optional[int] = None,
        trace_scale: Optional[float] = None,
    ) -> "ComparisonResult":
        """The single comparison matching the given cell coordinates.

        ``seed``/``trace_scale`` may be omitted when the plan only swept
        one value for them.
        """
        matches = [
            comp
            for (name, cell_seed, cell_scale), comp in self.comparisons().items()
            if name == app_name
            and (seed is None or cell_seed == seed)
            and (trace_scale is None or cell_scale == trace_scale)
        ]
        if not matches:
            raise KeyError(f"no runs for app {app_name!r} in this plan result")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous comparison for app {app_name!r}: "
                f"pass seed= and/or trace_scale="
            )
        return matches[0]

    def improvements(
        self, baseline: str = "baseline", **kwargs
    ) -> Dict[ComparisonKey, Dict[str, float]]:
        return {
            key: comp.improvements(baseline, **kwargs)
            for key, comp in self.comparisons().items()
        }

    def geomean_improvements(self, baseline: str = "baseline") -> Dict[str, float]:
        """Geometric-mean per-scheme improvement across every comparison
        cell (apps x seeds x scales) — the Fig. 17 aggregation."""
        from repro.experiments.runner import geomean_improvements

        return geomean_improvements(list(self.comparisons().values()), baseline)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan,
            "runs": [run.to_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanResult":
        return cls(
            runs=[RunResult.from_dict(r) for r in data.get("runs", [])],
            plan=data.get("plan"),
        )
