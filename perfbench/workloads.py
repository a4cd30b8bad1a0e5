"""The three workloads and the output checks they share.

Every workload drives the package the way a user does, through
``deepmta.cli.main``, in process. The amount of work in a run is a pure
function of (workload, seed, seconds): ``passes`` turns ``--seconds`` into a
pass count from each workload's nominal pass time on a 2-core x86 machine,
so the same seed and seconds give the same inputs, outputs, digests and
traced counts on every run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from deepmta import cli

KEY_CHANNEL = "ch00"
# The acceptance dataset of the README: 8 channels, 3 campaigns, key lift
# 0.6 on channel 0, base rate 0.2, a 48 h span.
ACCEPTANCE_GEN = [
    "--channels", "8", "--campaigns", "3", "--key-channel", "0",
    "--key-lift", "0.6", "--base-rate", "0.2", "--time-span-hours", "48",
]
TRAIN_SEED = "3"
FROZEN_MODEL = "frozen/model.json"
ATTRIBUTE_SEED = "0"
GMV_RTOL = 1e-9
WEIGHT_SUM_TOL = 1e-9

# key=value lines each stage documents on stdout
STAGE_KEYS = {
    "gen": ("journeys", "conversion_rate", "out", "vocab"),
    "train": ("final_train_loss", "final_val_loss", "checkpoint", "history"),
    "eval": ("auc", "per_step_accuracy", "roc_out"),
    "attribute": ("journeys", "unattributed", "out"),
    "report": ("channels", "attributed", "unattributed", "total_deepmta_gmv", "total_lastclick_gmv", "out"),
}


class StageFailed(Exception):
    """A stage or check failed in a way that leaves the pass nothing to run."""


@dataclass
class PassResult:
    wall: float
    stages: dict[str, float]
    attr_rate: float
    auc: float
    wins: int
    eligible: int
    checkpoint_sha: str
    attribution_sha: str
    probe: bool
    train_rate: float | None = None


@dataclass
class Run:
    """Checks, counters and CLI invocation shared by every workload."""

    work: Path
    tracer: object | None = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()

    def cli(self, stage: str, *argv) -> tuple[dict, float]:
        """Run one CLI stage; returns its key=value output and wall seconds."""
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"stage.{stage}"):
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([stage, *map(str, argv)])
            except Exception as exc:  # a traceback is a failed operation, not a crash of the run
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        kv = dict(line.partition("=")[::2] for line in out.getvalue().splitlines())
        missing = [k for k in STAGE_KEYS[stage] if k not in kv]
        if not self.check(code == 0 and not missing, f"{stage}: exit {code}, missing {missing}; {err.getvalue()[-300:]}"):
            raise StageFailed(stage)
        return kv, seconds

    def import_probe(self, src: Path) -> None:
        """Import deepmta.cli in a fresh interpreter, as a user's first call does."""
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", "import deepmta.cli"], env=env, capture_output=True, timeout=120)
        self.check(proc.returncode == 0, f"import probe exit {proc.returncode}: {proc.stderr[-300:]!r}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_attributions(run: Run, data: Path, attr: Path) -> list[tuple[dict, dict]]:
    """One check per journey: input order, user_id, length, and weights that
    are non-negative and sum to 1, or all zero and marked unattributed."""
    journeys, records = read_jsonl(data), read_jsonl(attr)
    if not run.check(len(journeys) == len(records), f"{attr.name}: {len(records)} lines for {len(journeys)} journeys"):
        raise StageFailed("attribute")
    for idx, (journey, record) in enumerate(zip(journeys, records)):
        weights = record["weights"]
        total = math.fsum(weights)
        if record["unattributed"]:
            weights_ok = all(w == 0.0 for w in weights)
        else:
            weights_ok = all(w >= 0.0 for w in weights) and abs(total - 1.0) <= WEIGHT_SUM_TOL
        run.check(
            record["user_id"] == journey["user_id"]
            and len(weights) == len(journey["events"])
            and weights_ok,
            f"{attr.name} line {idx + 1}: user {record['user_id']!r}, {len(weights)} weights summing to {total!r}",
        )
    return list(zip(journeys, records))


def check_report(run: Run, pairs: list[tuple[dict, dict]], report_json: Path) -> None:
    """TOTAL deepmta GMV = TOTAL last-click GMV = sum of attributed GMV."""
    totals = json.loads(report_json.read_text(encoding="utf-8"))["totals"]
    attributed = math.fsum(j["gmv"] for j, r in pairs if not r["unattributed"])
    for column in ("deepmta_gmv", "lastclick_gmv"):
        run.check(
            math.isclose(totals[column], attributed, rel_tol=GMV_RTOL, abs_tol=0.0),
            f"{report_json.name}: TOTAL {column} {totals[column]!r} != attributed GMV {attributed!r}",
        )


def key_channel_wins(pairs: list[tuple[dict, dict]]) -> tuple[int, int]:
    """Acceptance criterion 6: over attributed converted journeys containing
    the key channel, how often the key channel has the highest summed weight
    (a tie at the top counts)."""
    wins = eligible = 0
    for journey, record in pairs:
        if not journey["converted"] or record["unattributed"] or KEY_CHANNEL not in record["channels"]:
            continue
        per_channel: dict[str, float] = {}
        for channel, w in zip(record["channels"], record["weights"]):
            per_channel[channel] = per_channel.get(channel, 0.0) + w
        eligible += 1
        wins += per_channel[KEY_CHANNEL] >= max(per_channel.values()) - 1e-12
    return wins, eligible


def attribute_pass(run: Run, model: Path, data: Path, out: Path, stages: dict, probe: bool, *extra) -> PassResult:
    """attribute, eval and report on one journey file, with every output
    check; the pass's wall time is the sum of its CLI stages."""
    _, stages["attribute"] = run.cli(
        "attribute", "--model", model, "--data", data, "--out", out / "attr.jsonl",
        "--method", "auto", "--seed", ATTRIBUTE_SEED, *extra,
    )
    pairs = check_attributions(run, data, out / "attr.jsonl")
    kv, stages["eval"] = run.cli("eval", "--model", model, "--data", data, "--roc-out", out / "roc.csv")
    _, stages["report"] = run.cli(
        "report", "--attr", out / "attr.jsonl", "--data", data,
        "--out", out / "report.csv", "--json", out / "report.json",
    )
    check_report(run, pairs, out / "report.json")
    wins, eligible = key_channel_wins(pairs)
    return PassResult(
        wall=math.fsum(stages.values()),
        stages=stages,
        attr_rate=len(pairs) / stages["attribute"],
        auc=float(kv["auc"]),
        wins=wins,
        eligible=eligible,
        checkpoint_sha=sha256(model),
        attribution_sha=sha256(out / "attr.jsonl"),
        probe=probe,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class PipelineDesk:
    """The README's five stages on the acceptance dataset, one fresh dataset
    per pass; eval, attribute and report run on the held-out last 10%."""

    name = "pipeline-desk"
    shared_model = False
    nominal_pass_s = 7.5
    journeys = 10_000
    holdout = 1_000
    epochs = 2

    def passes(self, seconds: int) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def setup(self, run: Run, seed: int, n_passes: int) -> tuple[int, float] | None:
        return None

    def run_pass(self, run: Run, seed: int, index: int) -> PassResult:
        out = run.work / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        stages = {}
        _, stages["gen"] = run.cli(
            "gen", "--out", out / "journeys.jsonl", "--journeys", self.journeys, "--max-len", "4",
            *ACCEPTANCE_GEN, "--seed", seed * 1000 + index, "--include-nonconverted",
        )
        lines = (out / "journeys.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (out / "train.jsonl").write_text("".join(lines[: -self.holdout]), encoding="utf-8")
        (out / "holdout.jsonl").write_text("".join(lines[-self.holdout:]), encoding="utf-8")
        _, stages["train"] = run.cli(
            "train", "--data", out / "train.jsonl", "--vocab", out / "journeys.vocab.json",
            "--out", out / "model.json", "--preset", "desk", "--epochs", self.epochs, "--seed", TRAIN_SEED,
        )
        result = attribute_pass(run, out / "model.json", out / "holdout.jsonl", out, stages, True)
        result.train_rate = (len(lines) - self.holdout) * self.epochs / stages["train"]
        shutil.rmtree(out)
        return result


class AttributeWorkload:
    """``attribute --method auto`` against a frozen desk model trained in
    set-up from a fixed seed. Each pass attributes one batch of converted
    journeys with a fixed count per length, then runs eval and report on it
    for the quality guards and the GMV checks.

    Pass 0's batch comes from a fixed probe seed and is the only one the
    quality guards (auc, key-channel win rate) are read from. A batch holds
    8 or 52 journeys, too few for a win rate that is steady across seeds;
    on a fixed probe the guards move only when the attribution results do.
    The other passes' batches come from the workload seed.
    """

    shared_model = True
    frozen_seed = 20040038
    probe_seed = 4200384
    frozen_journeys = 2_000
    frozen_epochs = 2

    def __init__(self, name: str, quotas: dict[int, int], max_len: int, pool: int, nominal_pass_s: float, extra=()):
        self.name = name
        self.quotas = quotas
        self.max_len = max_len
        self.pool = pool
        self.nominal_pass_s = nominal_pass_s
        self.extra = tuple(extra)

    def passes(self, seconds: int) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def setup(self, run: Run, seed: int, n_passes: int) -> tuple[int, float]:
        """Train the frozen model and write one batch file per pass; returns
        the journey-epochs trained and the train stage's seconds."""
        frozen = run.work / "frozen"
        shutil.rmtree(frozen, ignore_errors=True)
        frozen.mkdir(parents=True)
        run.cli(
            "gen", "--out", frozen / "journeys.jsonl", "--journeys", self.frozen_journeys, "--max-len", "4",
            *ACCEPTANCE_GEN, "--seed", self.frozen_seed, "--include-nonconverted",
        )
        _, seconds = run.cli(
            "train", "--data", frozen / "journeys.jsonl", "--vocab", frozen / "journeys.vocab.json",
            "--out", frozen / "model.json", "--preset", "desk", "--epochs", self.frozen_epochs, "--seed", TRAIN_SEED,
        )
        # pass 0 from the fixed probe pool; the rest share one pool from the
        # workload seed, large enough that no length quota can run short
        probe = self._pool(run, "probe", self.probe_seed, self.pool)
        seeded = self._pool(run, "seeded", seed, self.pool * (n_passes + 3) // 4)
        for index in range(n_passes):
            left = dict(self.quotas)
            batch = []
            source = seeded if index else probe
            while any(left.values()) and source:
                journey = source.pop()
                if left.get(len(journey["events"]), 0) > 0:
                    left[len(journey["events"])] -= 1
                    batch.append(journey)
            if not run.check(not any(left.values()), f"batch {index}: length quotas unmet {left}"):
                raise StageFailed("setup")
            write_jsonl(run.work / f"batch{index}.jsonl", batch)
        return self.frozen_journeys * self.frozen_epochs, seconds

    def _pool(self, run: Run, name: str, seed: int, size: int) -> list[dict]:
        """Converted journeys of 1..max_len events, in reverse file order."""
        path = run.work / f"{name}.jsonl"
        run.cli("gen", "--out", path, "--journeys", size, "--max-len", self.max_len, *ACCEPTANCE_GEN, "--seed", seed)
        return read_jsonl(path)[::-1]

    def run_pass(self, run: Run, seed: int, index: int) -> PassResult:
        out = run.work / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        data = run.work / f"batch{index}.jsonl"
        result = attribute_pass(run, run.work / FROZEN_MODEL, data, out, {}, index == 0, *self.extra)
        shutil.rmtree(out)
        return result


SAMPLED_PERMUTATIONS = 32

WORKLOADS = {
    w.name: w
    for w in (
        PipelineDesk(),
        # exact Shapley: 2^n masks per journey, so the four long journeys
        # (n = 9..12) carry most of the time and the 48 short ones most of
        # the quality-guard sample
        AttributeWorkload(
            "attribute-exact",
            quotas={**{n: 6 for n in range(1, 9)}, **{n: 1 for n in range(9, 13)}},
            max_len=12,
            pool=800,
            nominal_pass_s=2.2,
        ),
        # above 12 events auto resolves to sampled Shapley: one (n+1)-row
        # forward call per permutation
        AttributeWorkload(
            "attribute-sampled",
            quotas={n: 1 for n in range(13, 21)},
            max_len=20,
            pool=400,
            nominal_pass_s=4.2,
            extra=("--samples", SAMPLED_PERMUTATIONS),
        ),
    )
}
