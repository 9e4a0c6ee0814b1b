"""Output checks: tolerance mirrors of the acceptance criteria, read from the
CLI's CSVs (values, not bytes).  Each check returns a list of problems; an
empty list means the run passed.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

EXPERIMENTS = ("boolean-transfer", "fig1", "fig2", "gaussian1d-coeffs", "gotu",
               "icl-shift", "transfer-ensemble", "truncated")
BOOLEAN_FAMILIES = ("dictator", "normalized-sum", "synthetic-low-influence",
                    "random-low-degree")
# the CLI writes numpy scalars through repr(), e.g. "np.float64(4.44)"
_NP_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


def num(text: str) -> float:
    m = _NP_SCALAR.match(text)
    return float(m.group(1) if m else text)


def rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_list(out_dir: Path) -> list[str]:
    names = [line.split()[0] for line in (out_dir / "stdout.txt").read_text().splitlines()
             if line.strip()]
    return [] if tuple(names) == EXPERIMENTS else [f"list printed {names}"]


def check_figure(out_dir: Path) -> list[str]:
    mse = {(r["model"], r["region"]): num(r["mse"]) for r in rows(out_dir / "mse.csv")}
    problems = []
    seen = mse[("poly20", "seen")]
    if not seen <= 1e-3:
        problems.append(f"poly20 seen MSE {seen} > 1e-3")
    # Acceptance test_10 also asks for a poly20 band MSE of at most half the
    # ReLU net's, on the median over seeds 0-2.  No single seed guarantees
    # even the ordering at full length (150 epochs: fig1 seed 6 reads 0.310
    # vs 0.309, fig2 seed 3 0.894 vs 0.825), so a run checks finiteness only.
    for key in (("poly20", "band"), ("relu_net", "seen"), ("relu_net", "band")):
        if not math.isfinite(mse[key]):
            problems.append(f"{key} MSE is {mse[key]}")
    return problems


def check_gaussian1d(out_dir: Path) -> list[str]:
    problems = []
    for r in rows(out_dir / "coeffs.csv"):
        mu = num(r["mu"])
        expected = 1.0 + mu / math.sqrt(2 * math.pi)   # acceptance 6a
        got = num(r["numeric_ratio_sup"])
        if not abs(got - expected) <= 0.01 * expected:
            problems.append(f"mu={mu}: ratio sup {got} vs {expected}")
    return problems


def _forward_at_frozen_constant(kind: str) -> bool:
    # acceptance test_07 froze C = 1.25 on the half line [0, inf), alpha = 0.5
    return kind.startswith("truncated-forward") and kind.endswith("[alpha=0.5]")


def check_truncated(out_dir: Path) -> list[str]:
    bad = [r["kind"] for r in rows(out_dir / "reports.csv")
           if r["satisfied"] != "True"
           and (r["kind"].startswith("truncated-reverse") or _forward_at_frozen_constant(r["kind"]))]
    return [f"{len(bad)} truncated reports not satisfied: {bad[:3]}"] if bad else []


def forward_unsatisfied(out_dir: Path) -> int:
    """Forward reports that fail at thresholds the constant was not frozen on."""
    return sum(r["kind"].startswith("truncated-forward") and r["satisfied"] != "True"
               for r in rows(out_dir / "reports.csv"))


def check_boolean(out_dir: Path) -> list[str]:
    return [f"{r['family']}: condition holds but not satisfied"
            for r in rows(out_dir / "boolean.csv")
            if r["condition_holds"] == "True" and r["satisfied"] != "True"]


def families_missing(out_dir: Path) -> int:
    present = {r["family"] for r in rows(out_dir / "boolean.csv")}
    return sum(f not in present for f in BOOLEAN_FAMILIES)


def resolved(out_dir: Path) -> dict:
    """The run's configuration with every default filled in, as the CLI wrote it."""
    lines = (out_dir / "config.resolved.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def check_gotu(out_dir: Path) -> list[str]:
    c = resolved(out_dir)
    seed = int(c["seed"])
    ns = [int(float(v)) for v in c["gotu.scaling_ns"].split()]
    expected = [(int(c["gotu.n"]), seed)] + [
        (n, seed + 1000 + s) for n in ns for s in range(int(c["gotu.scaling_seeds"]))]
    got = [(int(r["n"]), int(r["seed"])) for r in rows(out_dir / "summary.csv")]
    return [] if got == expected else [f"summary rows {got} != {expected}"]


def check_icl(out_dir: Path) -> list[str]:
    c = resolved(out_dir)
    final = num(rows(out_dir / "train_trace.csv")[-1]["loss"])
    band_hi = 3.0 * (int(c["icl.n"]) + 1) / int(c["icl.length"])   # acceptance 9
    return [] if 0.0 <= final <= band_hi else [f"final loss {final} outside [0, {band_hi}]"]


def check_ensemble(out_dir: Path) -> list[str]:
    return [f"degree {r['degree']}: {r['max_ratio_root']} > {r['coefficient']}"
            for r in rows(out_dir / "ensemble.csv")
            if not num(r["max_ratio_root"]) <= num(r["coefficient"])]


CHECKS = {
    "list": check_list,
    "fig1": check_figure,
    "fig2": check_figure,
    "gaussian1d-coeffs": check_gaussian1d,
    "truncated": check_truncated,
    "boolean-transfer": check_boolean,
    "gotu": check_gotu,
    "icl-shift": check_icl,
    "transfer-ensemble": check_ensemble,
}


def check(job: str, out_dir: Path) -> list[str]:
    try:
        return CHECKS[job](out_dir)
    except (OSError, KeyError, ValueError, IndexError) as e:
        return [f"unreadable output: {e!r}"]
