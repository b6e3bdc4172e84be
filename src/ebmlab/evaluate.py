"""OOD scoring, average precision with tie blocks, report files, the
norm-sweep diagnostic, and density histograms."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .data import SplitBundle
from .models import ModelSpec, score_logdensity, _atomic_write_json

REPORT_SCHEMA_VERSION = 1


class EvalError(Exception):
    pass


@dataclass
class EvalReport:
    run: dict
    results: list[dict]            # {ood_set, auc_pr, group}
    selection: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "run": self.run,
            "results": self.results,
            "selection": self.selection,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        if d.get("schema_version") != REPORT_SCHEMA_VERSION:
            raise EvalError(f"unsupported report schema version {d.get('schema_version')}")
        return cls(run=d["run"], results=d["results"], selection=d.get("selection", {}))

    def save(self, path: str):
        _atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "EvalReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def average_precision(labels, scores) -> float:
    """AP with ID labeled 1, OOD labeled 0; tied scores form one block.

    Accumulate (R_k - R_{k-1}) * P_k over distinct-score thresholds, from
    the highest down, so a constant scorer gets the prevalence instead of
    an arbitrary tie-ordering artifact. ``cumsum`` sums left to right,
    where ``np.sum`` would sum pairwise and round differently.

    The ID and the OOD scores are sorted apart (``_ap_counts``).
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise EvalError("labels and scores must align")
    if np.isnan(scores).any():
        raise EvalError("NaN score")
    pos, neg = labels == 1, labels == 0
    if not np.all(pos | neg):
        raise EvalError("labels must be 1 (ID) or 0 (OOD)")
    return _ap_counts(scores[pos], scores[neg])


def _id_vs_ood_ap(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """``average_precision`` of ID scores (label 1) followed by OOD scores
    (label 0), its checks and its bits, without joining the two."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if np.isnan(id_scores).any() or np.isnan(ood_scores).any():
        raise EvalError("NaN score")
    return _ap_counts(id_scores, ood_scores)


def _ap_counts(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """The AP of ID against OOD scores, neither NaN. At each distinct ID
    score t, the ID scores >= t are counted from where t's run starts in the
    sorted ID scores and the OOD scores >= t by ``searchsorted``. A
    threshold that no ID score reaches adds no recall, so its term is an
    exact +0.0 and leaving it out changes no bit of the sum."""
    n_pos = len(id_scores)
    if n_pos == 0 or len(ood_scores) == 0:
        raise EvalError("need at least one positive and one negative")
    ids, oods = np.sort(id_scores), np.sort(ood_scores)
    first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])  # start of each tie run
    tp = (n_pos - first)[::-1]
    fp = (len(oods) - np.searchsorted(oods, ids[first]))[::-1]
    recall = tp / n_pos
    precision = tp / (tp + fp)
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def _finite_scores(spec: ModelSpec, params, features, source: str) -> np.ndarray:
    """``score_logdensity`` of a set, which must be finite everywhere."""
    scores = score_logdensity(spec, params, features)
    if not np.all(np.isfinite(scores)):
        raise EvalError(f"non-finite scores in {source!r}")
    return scores


def ood_report(
    spec: ModelSpec,
    params,
    bundle: SplitBundle,
    ood_sets: dict[str, np.ndarray],
    groups: dict[str, str] | None = None,
    run_meta: dict | None = None,
) -> EvalReport:
    """One AP per OOD set against id_test, plus the selection AP on ood_val."""
    groups = groups or {}
    id_scores = _finite_scores(spec, params, bundle.id_test.features, "id_test")
    results = []
    for name in sorted(ood_sets):
        ap = _id_vs_ood_ap(id_scores, _finite_scores(spec, params, ood_sets[name], name))
        results.append({"ood_set": name, "auc_pr": ap, "group": groups.get(name, "natural")})
    selection = {}
    if bundle.ood_val.n > 0:
        selection = {"metric": "auc_pr(id_val vs ood_val)",
                     "auc_pr": selection_score(spec, params, bundle)}
    return EvalReport(run=run_meta or {}, results=results, selection=selection)


def selection_score(spec: ModelSpec, params, bundle: SplitBundle) -> float:
    """Model-selection AP: id_val against ood_val, whose scores must be
    finite everywhere."""
    return _id_vs_ood_ap(_finite_scores(spec, params, bundle.id_val.features, "id_val"),
                         _finite_scores(spec, params, bundle.ood_val.features, "ood_val"))


def unit_directions_through(anchor: np.ndarray, points: np.ndarray) -> np.ndarray:
    diff = np.atleast_2d(points) - anchor
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    norms = np.where(norms > 1e-12, norms, 1.0)
    return diff / norms


def random_unit_directions(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def norm_sweep(spec: ModelSpec, params, anchor, directions, radii) -> np.ndarray:
    """Mean unnormalized log-density over probes anchor + r * direction,
    one entry per radius."""
    anchor = np.asarray(anchor, dtype=np.float64)
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size and (np.any(np.diff(radii) < 0) or radii[0] < 0):
        raise EvalError("radii must be ascending and nonnegative")
    curve = np.zeros(radii.size)
    for i, r in enumerate(radii):
        probes = anchor[None, :] + r * directions
        curve[i] = float(score_logdensity(spec, params, probes).mean())
    return curve


def density_histogram(score_sets: dict[str, np.ndarray], bins: int):
    """Shared-edge histograms spanning the joint min/max of all sets."""
    allscores = np.concatenate([np.asarray(s, dtype=np.float64) for s in score_sets.values()])
    lo, hi = float(allscores.min()), float(allscores.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = {name: np.histogram(s, bins=edges)[0] for name, s in score_sets.items()}
    return edges, counts


def write_series_csv(path: str, rows, header=("x", "value", "series")):
    """CSV of (x, value, series) rows for plotting; floats, numpy's too, as plain repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
