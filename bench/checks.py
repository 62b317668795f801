"""Output checks, run after the timed region.

Each check recomputes what the program wrote with the code in
``reference.py`` and reports the operations of one round that are
missing or wrong: a (snr_max, share, trial, strategy) row of
``report.csv``, a row of the gain grid, or a threshold.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference as ref

# how many dumped trials (one population each) are recomputed per run
SAMPLE_TRIALS = 4
# how many non-blank grid gains are recomputed per run
SAMPLE_GAINS = 400
# a dumped SNR (10 significant digits) this close to a threshold does not
# say on which side of it the program's full-precision SNR was
NEAR_THRESHOLD_DB = 1e-6
# the adopted ρ = 0.80 geometry: ring ratio and outer half angle (deg)
APSK_GEOMETRY = {0.8: (2.3, 28.4)}
LOSS_MARGIN_DB = 0.8
QUADRATURE_ORDER = 24
# the largest distance today between an estimated threshold (less the
# margin) and the quadrature inversion is 0.058 dB (HE 1/4)
THRESHOLD_TOL_DB = 0.1


@dataclass
class Outcome:
    """Failed operations of one round, with the reasons and notes."""

    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, op, why: str) -> None:
        if op not in self.failed and len(self.problems) < 20:
            self.problems.append(f"{op}: {why}")
        self.failed.add(op)


def _rows(path):
    """Header and data rows of a CSV file, or (None, []) if unreadable."""
    try:
        rows = ref.read_csv_rows(path)
    except OSError:
        return None, []
    return (rows[0], rows[1:]) if rows else (None, [])


# -- simulate -------------------------------------------------------------

def _report(path):
    """report.csv as {(snr_max, share, trial, strategy): (classical, hier, gain)}."""
    header, rows = _rows(path)
    if header is None or header[:7] != ["snr_max_db", "strategy", "share", "trial",
                                          "classical_rate", "hier_rate", "gain"]:
        return {}, set()
    out, dup = {}, set()
    for r in rows:
        try:
            key = (float(r[0]), float(r[2]), int(r[3]), r[1])
        except (ValueError, IndexError):
            continue
        if key in out:
            dup.add(key)
        out[key] = tuple(r[4:7])
    return out, dup


def _population(path):
    header, rows = _rows(path)
    if header != ["snr_db", "class", "weight"]:
        return None
    return [(float(r[0]), int(r[2])) for r in rows]


def check_simulate(spec: dict, table_rows) -> Outcome:
    out = Outcome()
    cfg = spec["check"]["config"]
    sc = cfg["scenario"]
    table = ref.Table(table_rows, sc["rho_set"])
    shares = sc["professional_share_grid"] if cfg["mode"] == "heterogeneous" else [0.0]
    strategies = sc["strategies"]

    def keys(n_trials):
        return [(float(snr), float(share), t, s) for snr in sc["snr_max_grid"]
                for share in shares for t in range(n_trials) for s in strategies]

    report, dup = _report(os.path.join(spec["out_dir"], "report.csv"))
    expected = keys(sc["n_trials"])
    for key in expected:
        if key not in report:
            out.fail(key, "missing from report.csv")
        elif key in dup:
            out.fail(key, "written more than once")

    # the classical rate does not depend on the pairing strategy
    groups = defaultdict(list)
    for key in expected:
        if key in report:
            groups[key[:3]].append(key)
    for group, members in groups.items():
        if len({report[k][0] for k in members}) > 1:
            for k in members:
                out.fail(k, "classical rate differs across strategies")

    # the untimed pass that dumped the populations wrote the same rows
    dump_dir = spec["check"]["dump_dir"]
    dump_trials = spec["check"]["dump_config"]["scenario"]["n_trials"]
    dumped, _ = _report(os.path.join(dump_dir, "report.csv"))
    for key in keys(dump_trials):
        if dumped.get(key) != report.get(key):
            out.fail(key, "the population-dumping pass wrote another row")

    # recompute a seeded sample of trials from their dumped populations
    candidates = sorted({k[:3] for k in keys(dump_trials)})
    rng = np.random.default_rng([spec["seed"], 3])
    checked = 0
    for idx in rng.permutation(len(candidates)):
        if checked == SAMPLE_TRIALS:
            break
        snr, share, trial = candidates[idx]
        members = [(snr, share, trial, s) for s in strategies]
        name = f"population_snr{snr:g}_share{share:g}_trial{trial}.csv"
        receivers = _population(os.path.join(dump_dir, "populations", name))
        if receivers is None:
            for k in members:
                out.fail(k, f"no dumped population {name}")
            continue
        if any(table.near_threshold(s, NEAR_THRESHOLD_DB) for s, _ in receivers):
            continue
        checked += 1
        classical = ref.classical_rate(table, receivers)
        for key in members:
            if key not in report:
                continue
            printed = report[key]
            if not ref.matches_printed(classical, printed[0]):
                out.fail(key, f"classical rate {printed[0]} != {classical!r}")
            if key[3] in ("A", "D"):
                hier = ref.hierarchical_rate(table, receivers, key[3])
                gain = max(hier / classical - 1.0, 0.0)
                if not ref.matches_printed(hier, printed[1]):
                    out.fail(key, f"hierarchical rate {printed[1]} != {hier!r}")
                elif not ref.matches_printed(gain, printed[2], abs_tol=1e-12):
                    out.fail(key, f"gain {printed[2]} != {gain!r}")
    out.notes.append(f"recomputed {checked} dumped trials (strategies A and D in full, "
                     "the classical rate for all)")
    return out


# -- rates grid -----------------------------------------------------------

def check_grid(spec: dict, table_rows) -> Outcome:
    out = Outcome()
    table = ref.Table(table_rows)
    g = spec["check"]["grid"]
    n = int(round((g["snr_max"] - g["snr_min"]) / g["step"]))
    snrs = [g["snr_min"] + k * g["step"] for k in range(n + 1)]
    m = len(snrs)
    index = {f"{s:.10g}": k for k, s in enumerate(snrs)}
    decodes = np.array([table.best(s) > 0 for s in snrs])
    # row i <= j holds (snrs[i], snrs[j]); the gain is blank exactly where
    # the lower SNR decodes no single modcod
    upper = np.triu(np.ones((m, m), dtype=bool))
    expect_blank = upper & ~decodes[:, None]
    rng = np.random.default_rng([spec["seed"], 4])
    filled = np.flatnonzero((upper & ~expect_blank).ravel())
    sample = set(rng.choice(filled, size=min(SAMPLE_GAINS, filled.size), replace=False).tolist())

    seen = np.zeros((m, m), dtype=np.int32)
    blank = np.zeros((m, m), dtype=bool)
    gain = np.zeros((m, m))
    unreadable = np.zeros((m, m), dtype=bool)
    printed = {}
    header, rows = _rows(os.path.join(spec["out_dir"], "rates_gain_grid.csv"))
    if header == ["snr1_db", "snr2_db", "gain"]:
        for row in rows:
            if len(row) != 3:
                continue
            i, j = index.get(row[0]), index.get(row[1])
            if i is None or j is None:
                continue
            seen[i, j] += 1
            if row[2] == "":
                blank[i, j] = True
                continue
            try:
                gain[i, j] = float(row[2])
            except ValueError:
                unreadable[i, j] = True
            if i * m + j in sample:
                printed[i * m + j] = row[2]

    def fail_all(mask, why):
        for i, j in zip(*np.nonzero(upper & mask)):
            out.fail((snrs[i], snrs[j]), why)

    fail_all(seen == 0, "missing row")
    fail_all(seen > 1, "row written more than once")
    fail_all(blank != expect_blank, "gain blank where a single modcod decodes, or the reverse")
    fail_all(unreadable, "gain is not a number")
    fail_all(~blank & (gain < -1e-9), "negative gain: the hull lies below the time-sharing point")
    for flat in sorted(sample):
        i, j = divmod(flat, m)
        if flat not in printed:
            continue
        r1, r2 = table.best(snrs[i]), table.best(snrs[j])
        expected = ref.equal_rate(table.pair_points(snrs[i], snrs[j])) / (r1 * r2 / (r1 + r2)) - 1.0
        if not ref.matches_printed(expected, printed[flat], abs_tol=1e-12):
            out.fail((snrs[i], snrs[j]), f"gain {printed[flat]} != {expected!r}")
    out.notes.append(f"{m * (m + 1) // 2} rows expected; recomputed {len(printed)} gains")
    return out


# -- thresholds -----------------------------------------------------------

def check_thresholds(spec: dict, table_rows) -> Outcome:
    out = Outcome()
    rho = spec["check"]["rho"]
    modulation = f"H16APSK-{rho:.2f}"
    expected = [(stream, Fraction(r)) for stream in ("HE", "LE") for r in spec["check"]["rates"]]
    found = defaultdict(list)
    try:
        rows = ref.read_threshold_rows(os.path.join(spec["out_dir"], "thresholds_estimated.csv"))
    except (OSError, ValueError, IndexError):
        rows = []
    for r in rows:
        if r.modulation == modulation:
            found[(r.stream, r.code_rate)].append(r.threshold_db)
    symbols, quadrant = ref.apsk16(*APSK_GEOMETRY[rho])
    for key in expected:
        values = found.get(key, [])
        if len(values) != 1:
            out.fail(key, f"{len(values)} rows")
            continue
        stream, rate = key
        snr = ref.mi_threshold(symbols, quadrant, stream, 2 * float(rate), QUADRATURE_ORDER)
        if abs(values[0] - LOSS_MARGIN_DB - snr) > THRESHOLD_TOL_DB:
            out.fail(key, f"threshold {values[0]} dB, quadrature {snr + LOSS_MARGIN_DB:.3f} dB")
    shipped = {(r.stream, r.code_rate): r.threshold_db for r in table_rows if r.modulation == modulation}
    same = sum(1 for key in expected if found.get(key) == [shipped.get(key)])
    out.notes.append(f"{same} of {len(expected)} estimated thresholds equal the shipped table's rows")
    return out


CHECKS = {
    "simulate_homogeneous": check_simulate,
    "simulate_heterogeneous": check_simulate,
    "rates_grid": check_grid,
    "thresholds_estimate": check_thresholds,
}


def check(spec: dict, table_path: str) -> Outcome:
    return CHECKS[spec["workload"]](spec, ref.read_threshold_rows(table_path))
