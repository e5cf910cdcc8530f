"""Correctness checks run on each operation's outputs, outside the timed
region. Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

# Worst |MC - closed form| / SE over every dealer x scenario cell of a
# Gaussian run. With ~100 cells a sound engine exceeds 5 SE with probability
# about 6e-5 per seed, while a biased kernel or sampler lands far above it.
MAX_ABS_Z = 5.0

MC_FILES = (
    "ratios_expected_exposure.csv",
    "ratios_var99.csv",
    "ratios_es99.csv",
    "mean_max.csv",
    "report.csv",
    "histograms.csv",
)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def exit_codes(result: dict) -> list[str]:
    return [
        f"call {i} exited {c['code']}"
        for i, c in enumerate(result["calls"])
        if c["code"] != 0
    ]


def _analytic_ee(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return {(r[0], r[1]): float(r[2]) for r in rows[1:]}


def check_scenarios(out_dir: str, gaussian: bool, facts: dict) -> list[str]:
    """Checks on one ``ccpnet scenarios`` output directory. Records the
    report digest and, for Gaussian runs, ``max_abs_z`` in ``facts``."""
    from ccpnet import load_report

    names = MC_FILES + (("analytic_ee.csv",) if gaussian else ())
    missing = [n for n in names if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return [f"missing output files {missing}"]
    dump = os.path.join(out_dir, "report.csv")
    report = load_report(dump)
    facts["report_digest"] = digest(dump)

    bad = []
    for label, values in (
        ("ee", report.ee), ("ee_se", report.ee_se), ("var", report.var),
        ("es", report.es), ("mean_max", report.mean_max),
        ("ee_ratio", report.ee_ratio), ("var_ratio", report.var_ratio),
        ("es_ratio", report.es_ratio),
    ):
        values = np.asarray(values, dtype=float)
        if not (np.isfinite(values).all() and (values >= 0).all()):
            bad.append(f"{label} has a negative or non-finite value")
    if (report.es < report.var).any():
        bad.append("ES below VaR in some cell")
    total = dict(zip(report.scenario_names, report.total_ee))
    if not total["joint_ccp"] <= total["two_ccps"]:
        bad.append(
            f"joint_ccp total EE {total['joint_ccp']} above two_ccps {total['two_ccps']}"
        )
    if gaussian:
        ref = _analytic_ee(os.path.join(out_dir, "analytic_ee.csv"))
        z = 0.0
        for s, scen in enumerate(report.scenario_names):
            for n, dealer in enumerate(report.dealer_names):
                dev = abs(report.ee[s, n] - ref[(dealer, scen)])
                z = max(z, dev / max(report.ee_se[s, n], 1e-12))
        facts["max_abs_z"] = z
        if not z <= MAX_ABS_Z:
            bad.append(f"max |MC - analytic| = {z:.3g} SE exceeds {MAX_ABS_Z}")
    return bad


def _n_star(stdout: str) -> int | None:
    for token in stdout.split():
        if token.startswith("n_star="):
            return int(token.split("=", 1)[1])
    return None


def check_surface(
    result: dict, thresholds: list[int], surface_csv: str, shape: tuple[int, int],
    facts: dict,
) -> list[str]:
    """Checks on the threshold calls' output and the written surface file."""
    bad = []
    got = [_n_star(c["stdout"]) for c in result["calls"][: len(thresholds)]]
    if got != thresholds:
        bad.append(f"thresholds {got} != {thresholds}")
    if not os.path.exists(surface_csv):
        return bad + ["surface file missing"]
    facts["report_digest"] = digest(surface_csv)
    with open(surface_csv) as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["alpha", "rho", "n_star"]:
        bad.append(f"surface header {rows[0]}")
    body = rows[1:]
    if len(body) != shape[0] * shape[1]:
        return bad + [f"surface has {len(body)} rows, expected {shape[0] * shape[1]}"]
    surf = np.array([int(r[2]) for r in body]).reshape(shape)
    if not ((np.diff(surf, axis=0) <= 0).all() and (np.diff(surf, axis=1) <= 0).all()):
        bad.append("surface not monotone non-increasing on both axes")
    corners = (int(surf[0, 0]), int(surf[-1, 0]))
    if corners != (thresholds[0], thresholds[1]):
        bad.append(f"surface corners {corners} != {(thresholds[0], thresholds[1])}")
    return bad
