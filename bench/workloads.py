"""Seeded request lists for the three benchmark workloads, and their checks.

A run is a list of whole rounds.  Every round holds the same cost classes
(detuning, request kind, table size); the seed picks the order inside each
round and the parameters that cost little or nothing (angle, decay rate,
which chi values).  Angles, which change the step count by up to a quarter,
are dealt from a shuffled bag per cost class, so each class sees every angle
equally often over a run.  Runs with different seeds therefore do comparable
work, which keeps the medians steady while the argv lists still differ.

The program sees only the generated argv.  Each request knows which cells
of its output carry an error and the reference key for each, so a run is
checked cell by cell against the step-halved values in reference.json.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
from dataclasses import dataclass, field

TOLERANCE = 1e-8  # convergence bound of acceptance criterion 11
MEV = 1500.0  # ns^-1 per meV under the CLI's default "rounded" units

GATE_OPEN = {"angles": ("pi/2", "pi", "2pi"), "deltas_mev": (1, 2, 4, 8),
             "tau": "13.3ps", "gammas": (2, 4, 6, 8, 10)}
CLOSED_CHI = {"angles": ("pi/2", "pi", "2pi"), "chis": tuple(range(2, 41))}
DECAY_GRID = {"angles": ("pi/2", "pi"), "deltas_mev": (1, 2, 4),
              "tau": "14ps", "gammas": (2, 4, 6, 8, 10)}

TRACE_CELLS = ("pop0", "pop1", "pop_x", "purity", "p1", "p2", "p3")

# Seconds one round takes at the baseline commit on a 2-core Xeon; a run of
# --seconds S holds round(S / ROUND_S) rounds, at least MIN_ROUNDS.  The list
# depends on the seed and S only, never on how fast the program is, so the
# latency percentiles of two commits compare the same requests.
ROUND_S = {"gate-open": 8.8, "closed-chi": 3.6, "decay-grid": 10.5}
MIN_ROUNDS = 3  # 3 rounds of >= 4 requests leave ten beyond the tail


@dataclass
class Request:
    """One CLI call: its argv, where its table goes, and what to check."""

    kind: str
    argv: list
    output: str | None = None  # CSV path for -o requests
    # (reference key, cell name) -> how to find the cell in the output
    checks: list = field(default_factory=list)
    points: int = 1


class _Draws:
    """Seeded draws; `angle` deals each cost class's angles from a bag that
    hands out every angle once, in shuffled order, before any repeats."""

    def __init__(self, rng):
        self.rng = rng
        self._bags = {}

    def angle(self, cost_class, angles):
        bag = self._bags.setdefault(cost_class, [])
        if not bag:
            bag.extend(angles)
            self.rng.shuffle(bag)
        return bag.pop()


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, int(round(seconds / ROUND_S[workload])))


def _gamma_split(gamma):
    half = "%gns^-1" % (gamma / 2.0)
    return ["--gamma0", half, "--gamma1", half]


# Detunings of one gate-open round.  The two cheap classes are doubled so
# that the median and the tail order statistic fall inside the 2 meV class,
# among six members, rather than on the gap between two classes, where they
# would jump with the seed.
_GATE_OPEN_PLAN = (1, 1, 2, 2, 4, 8)


def _gate_open_round(draw, out_dir, index):
    pool, rng = GATE_OPEN, draw.rng
    deltas = list(_GATE_OPEN_PLAN)
    rng.shuffle(deltas)
    trace_at = rng.randrange(len(deltas))
    reqs = []
    for pos, delta in enumerate(deltas):
        angle = draw.angle(delta, pool["angles"])
        gamma = rng.choice(pool["gammas"])
        common = ["--angle", angle, "--delta", "%dmeV" % delta,
                  "--tau", pool["tau"]] + _gamma_split(gamma)
        key = "open|%s|%d|%d" % (angle, delta, gamma)
        if pos == trace_at:
            path = os.path.join(out_dir, "trace-%d.csv" % (index + pos))
            reqs.append(Request(
                kind="trace", argv=["trace"] + common + ["-o", path],
                output=path,
                checks=[("trace|%s|%d|%d" % (angle, delta, gamma), c)
                        for c in TRACE_CELLS]))
        else:
            reqs.append(Request(kind="gate-open", argv=["gate"] + common,
                                checks=[(key, "error")]))
    return reqs


def _sorted_chis(rng, n):
    return sorted(rng.sample(CLOSED_CHI["chis"], n))


def _closed_chi_round(draw, out_dir, index):
    pool, rng = CLOSED_CHI, draw.rng
    reqs = []
    for _ in range(5):
        angle = rng.choice(pool["angles"])
        chi = rng.choice(pool["chis"])
        key = "closed|%s|%d" % (angle, chi)
        reqs.append(Request(kind="gate-chi",
                            argv=["gate", "--angle", angle, "--chi", str(chi)],
                            checks=[(key, "error"), (key, "x_max")]))
    angle = draw.angle("sweep-chi", pool["angles"])
    chis = _sorted_chis(rng, 6)
    reqs.append(Request(
        kind="sweep-chi",
        argv=["sweep-chi", "--angle", angle,
              "--chi", ",".join(str(c) for c in chis)],
        checks=[("closed|%s|%d" % (angle, c), cell)
                for c in chis for cell in ("error", "x_max")],
        points=len(chis)))
    # two 30-chi calibration tables: with the sweep-chi they make a slow class
    # large enough to hold the tail order statistic in its middle
    for _ in range(2):
        angle = draw.angle("sweep-xmax", pool["angles"])
        chis = _sorted_chis(rng, 30)
        reqs.append(Request(
            kind="sweep-xmax",
            argv=["sweep-xmax", "--angle", angle,
                  "--chi", ",".join(str(c) for c in chis)],
            checks=[("closed|%s|%d" % (angle, c), "x_max") for c in chis],
            points=len(chis)))
    rng.shuffle(reqs)
    return reqs


# (subcommand, detunings in meV, number of decay rates): the same four cost
# classes in every round, so rounds cost the same whatever the seed draws.
_DECAY_PLAN = (("ratio-grid", (1,), 2), ("sweep-gamma", (2,), 2),
               ("sweep-delta", (1, 2), 1), ("ratio-grid", (4,), 1))


def _decay_grid_round(draw, out_dir, index):
    pool, rng = DECAY_GRID, draw.rng
    reqs = []
    for pos, (sub, deltas, n_gamma) in enumerate(_DECAY_PLAN):
        angle = draw.angle(pos, pool["angles"])
        gammas = sorted(rng.sample(pool["gammas"], n_gamma))
        path = os.path.join(out_dir, "%s-%d.csv" % (sub, index + pos))
        checks = []
        for d in deltas:
            for g in gammas:
                checks.append(("decay|%s|%d|%d" % (angle, d, g), "error"))
            if sub != "ratio-grid":
                checks.append(("floor|%s|%d" % (angle, d), "error_floor"))
        reqs.append(Request(
            kind=sub,
            argv=[sub, "--angle", angle, "--tau", pool["tau"],
                  "--delta", ",".join(str(d) for d in deltas) + "meV",
                  "--gamma", ",".join(str(g) for g in gammas) + "ns^-1",
                  "-o", path],
            output=path, checks=checks, points=len(deltas) * len(gammas)))
    rng.shuffle(reqs)
    return reqs


_ROUNDS = {"gate-open": _gate_open_round, "closed-chi": _closed_chi_round,
           "decay-grid": _decay_grid_round}
WORKLOADS = tuple(_ROUNDS)


def build_requests(workload, seed, rounds, out_dir):
    """The request list of one run: `rounds` whole rounds drawn from `seed`."""
    if workload not in _ROUNDS:
        raise ValueError("unknown workload %r" % workload)
    draw = _Draws(random.Random("%s:%d" % (workload, seed)))
    reqs = []
    for _ in range(rounds):
        reqs.extend(_ROUNDS[workload](draw, out_dir, len(reqs)))
    return reqs


def warmup_request(workload, out_dir):
    """A cheap request that triggers the workload's lazy imports, not timed."""
    if workload == "closed-chi":
        return ["gate", "--angle", "pi", "--chi", "20"]
    if workload == "gate-open":
        return ["gate", "--angle", "pi", "--delta", "1meV", "--tau", "13.3ps",
                "--gamma0", "1ns^-1", "--gamma1", "1ns^-1"]
    return ["ratio-grid", "--angle", "pi", "--tau", "14ps", "--delta", "1meV",
            "--gamma", "2ns^-1", "-o", os.path.join(out_dir, "warmup.csv")]


# ---------------------------------------------------------------- parsing

def _kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            out[k.strip()] = v.strip()
    return out


def _csv_rows(text):
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _mev(ns):
    return int(round(float(ns) / MEV))


def output_cells(req, stdout):
    """Map (reference key, cell) -> float for every checkable cell printed.

    Raises ValueError (or KeyError) when the output cannot be parsed.
    """
    if req.kind in ("gate-open", "gate-chi"):
        kv = _kv(stdout)
        key = req.checks[0][0]
        return {(key, cell): float(kv[cell]) for _, cell in req.checks}
    if req.kind == "trace":
        with open(req.output) as fh:
            last = _csv_rows(fh.read())[-1]
        key = req.checks[0][0]
        return {(key, c): float(last[c]) for c in TRACE_CELLS}
    angle = req.argv[req.argv.index("--angle") + 1]
    cells = {}
    if req.kind in ("sweep-chi", "sweep-xmax"):
        for row in _csv_rows(stdout):
            key = "closed|%s|%d" % (angle, int(round(float(row["chi"]))))
            for cell in ("error", "x_max"):
                if cell in row:
                    cells[(key, cell)] = float(row[cell])
        return cells
    with open(req.output) as fh:
        rows = _csv_rows(fh.read())
    for row in rows:
        d = _mev(row["detuning"])
        g = int(round(float(row["gamma"])))
        cells[("decay|%s|%d|%d" % (angle, d, g), "error")] = float(row["error"])
        if "error_floor" in row:
            cells[("floor|%s|%d" % (angle, d), "error_floor")] = float(
                row["error_floor"])
    return cells


def check_cells(req, cells, reference):
    """Compare every expected cell with the reference.

    Returns (values checked, largest deviation, list of problems); a cell
    that is missing, not finite or further than TOLERANCE from the reference
    is a problem.
    """
    problems = []
    max_dev = 0.0
    for key, cell in req.checks:
        want = reference[key][cell]
        got = cells.get((key, cell))
        if got is None or not math.isfinite(got):
            problems.append("%s %s missing or not finite" % (key, cell))
            continue
        dev = abs(got - want)
        max_dev = max(max_dev, dev)
        if dev > TOLERANCE:
            problems.append("%s %s = %.12g, reference %.12g"
                            % (key, cell, got, want))
    return len(req.checks), max_dev, problems
