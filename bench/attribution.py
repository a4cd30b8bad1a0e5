"""Time `attribution.attribute_journeys` on seeded inputs at one and two workers.

Seven inputs, each attributed at 1 and 2 workers, with `--method auto`
semantics unless named otherwise:

- exact: 52 converted journeys of 1-12 events, six of each length 1-8 and
  one of each length 9-12 (perfbench's attribute-exact batch shape), on a
  desk model;
- exact-ols: the exact batch under `method="ols"`, whose games of up to
  12 events take the same powerset and the same stacked exact solver as
  exact Shapley. No perfbench workload runs this method;
- sampled: 8 converted journeys, one of each length 13-20, at 32
  permutations, on the desk model;
- holdout: 1000 journeys of 1-4 events, converted or not (pipeline-desk's
  holdout shape), on the desk model;
- holdout-cli: the same file through the whole `attribute` command,
  `cli.main(["attribute", ...])` at MTA_THREADS=1 and 2: reading the file,
  loading the model and writing the JSONL included, which
  `attribute_journeys` alone leaves out;
- paper: one converted journey of each length 1-8 and one of 10 events on
  a model of the paper preset's width (H=1024, two layers, seeded init; its
  speed does not depend on its training);
- holdout-paper: the holdout on the paper-width model, where a shard's scan
  inputs (layer 0's projection and the time gates of every event, at
  4 + n_layers values of H per event and dtype) weigh the most.

The desk model is trained once in set-up as perfbench trains its frozen
model: the desk preset, 2 epochs over 2000 journeys of 1-4 events, seed 3.
Each configuration then runs in a fresh interpreter, so that its peak RSS
is that of loading the model and inputs and attributing them, not of the
set-up or of another configuration. Per configuration it reports the
median and quartiles of ms per call (after warm-up calls), the windows,
blocks and node-steps of one call (GameStats; `windows` is null where the
package does not count it), the node-steps per second of the median call
(its node-steps over its whole time: reading, planning and solving are in
it too, and at two workers the scans of both processes), the calling
process's peak RSS, and the peak RSS of its forked workers (null at one
worker). After those, one more call runs under tracemalloc for the calling
process's peak of traced allocations (`traced_peak_mb`, the growth over what
was allocated before it), and `scan_inputs_bytes_per_event` gives the bytes
of the arrays `model._scan_inputs` returns by default for the input's whole
table (the inputs an attribution shard holds while it scores its table)
per event. Writes BENCH_attribute.json with the environment.

    python bench/attribution.py
    python bench/attribution.py --inputs exact holdout --repeats 5 --out /tmp/a.json

BENCH_attribute_parent.json holds the numbers of the code before an
attribution shard held its scan inputs in float32 only and made the time
gate once per distinct event time, when it held them in float64 and
float32 both (commit e6b62f7), on the same host. The script uses only
`attribute_journeys`, `GameStats`, `cli.main`, `model._scan_inputs` and the
package's data and model functions, so it runs unchanged on that code:

    git archive e6b62f7 | tar -x -C <dir>
    cp bench/attribution.py <dir>/bench/
    cd <dir> && python bench/attribution.py --out BENCH_attribute_parent.json
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported; the configurations'
# interpreters inherit it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from deepmta import cli  # noqa: E402
from deepmta.attribution import GameStats, attribute_journeys  # noqa: E402
from deepmta.journey import (  # noqa: E402
    GeneratorConfig,
    generate_synthetic,
    journey_table,
    load_journeys,
    save_journeys,
)
from deepmta.model import _scan_inputs, init_params, load_checkpoint, save_checkpoint  # noqa: E402
from deepmta.trainer import TrainConfig, train  # noqa: E402

# perfbench's acceptance dataset: 8 channels, 3 campaigns, key channel 0
GEN = {"n_channels": 8, "n_campaigns": 3, "key_channel_index": 0, "key_lift": 0.6, "base_rate": 0.2,
       "time_span_hours": 48.0}
INPUTS = ("exact", "exact-ols", "sampled", "holdout", "holdout-cli", "paper", "holdout-paper")
# the inputs attributed on the paper-width model
PAPER = ("paper", "holdout-paper")
# the inputs attributed under another method than auto
METHODS = {"exact-ols": "ols"}
SAMPLES = 32  # sampled Shapley's permutations, as in perfbench's attribute-sampled
SEED = 0


def quartiles(values: list[float]) -> dict[str, float | None]:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def by_quota(quotas: dict[int, int], max_len: int, seed: int) -> list:
    """Converted journeys filling a count per length, from a seeded pool."""
    _, pool = generate_synthetic(GeneratorConfig(n_journeys=200 * max_len, max_len=max_len, **GEN), seed)
    left, batch = dict(quotas), []
    for journey in pool:
        if left.get(len(journey.events), 0) > 0:
            left[len(journey.events)] -= 1
            batch.append(journey)
    if any(left.values()):
        raise RuntimeError(f"length quotas unmet: {left}")
    return batch


def make_input(name: str) -> list:
    if name in ("exact", *METHODS):
        return by_quota({**{n: 6 for n in range(1, 9)}, **{n: 1 for n in range(9, 13)}}, 12, SEED + 1)
    if name == "sampled":
        return by_quota({n: 1 for n in range(13, 21)}, 20, SEED + 2)
    if name in ("holdout", "holdout-cli", "holdout-paper"):
        return generate_synthetic(
            GeneratorConfig(n_journeys=1000, max_len=4, include_nonconverted=True, **GEN), SEED + 3)[1]
    return by_quota({**{n: 1 for n in range(1, 9)}, 10: 1}, 10, SEED + 4)


def train_desk_model(path: Path, journeys: int) -> None:
    vocab, data = generate_synthetic(
        GeneratorConfig(n_journeys=journeys, max_len=4, include_nonconverted=True, **GEN), SEED + 5)
    result = train(data, vocab, TrainConfig.preset("desk", epochs=2, seed=3), workers=1)
    save_checkpoint(path, result.params, result.vocab, seed=3)


def cli_call(work: Path, workers: int):
    """One `attribute` command on the holdout-cli input at MTA_THREADS =
    `workers`, as a function returning its journeys and counters."""
    os.environ["MTA_THREADS"] = str(workers)
    argv = ["attribute", "--model", str(work / "desk.json"), "--data", str(work / "holdout-cli.jsonl"),
            "--out", str(work / f"holdout-cli-{workers}.out.jsonl"), "--samples", str(SAMPLES), "--seed", str(SEED)]

    def call() -> tuple[int, GameStats]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"attribute exited {code}")
        kv = dict(line.split("=", 1) for line in stdout.getvalue().splitlines())
        return int(kv["journeys"]), GameStats(**{key: int(kv[key]) for key in ("windows", "blocks", "node_steps")})

    return call


def run_config(work: Path, name: str, workers: int, repeats: int, warmup: int, paper_hidden: int) -> dict:
    """One configuration, in this (fresh) interpreter."""
    params, vocab, _ = load_checkpoint(work / "desk.json")
    if name in PAPER:
        paper = TrainConfig.preset("paper", hidden_size=paper_hidden)
        params = init_params(vocab.encoding_dim, paper.hidden_size, paper.n_layers, dropout_p=paper.dropout_p,
                             r_on_init=paper.r_on_init, rng=SEED)
    if name == "holdout-cli":
        call = cli_call(work, workers)
    else:
        journeys = load_journeys(work / f"{name}.jsonl")

        def call() -> tuple[int, GameStats]:
            stats = GameStats()
            results = list(attribute_journeys(params, journeys, vocab, method=METHODS.get(name, "auto"),
                                              n_samples=SAMPLES, seed=SEED, workers=workers, stats=stats))
            if len(results) != len(journeys):
                raise RuntimeError(f"{len(results)} results for {len(journeys)} journeys")
            return len(results), stats

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = []
    for index in range(warmup + repeats):
        start = time.perf_counter()
        count, stats = call()
        elapsed = time.perf_counter() - start
        if index >= warmup:
            ms.append(1e3 * elapsed)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        traced_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    table = journey_table(load_journeys(work / f"{name}.jsonl"), vocab)
    inputs = _scan_inputs(params, table)
    ms_per_call = quartiles(ms)
    return {
        "input": name, "workers": workers, "journeys": count, "H": params.hidden_size, "calls": len(ms),
        "ms_per_call": ms_per_call, "windows": getattr(stats, "windows", None), "blocks": stats.blocks,
        "node_steps": stats.node_steps, "node_steps_per_s": round(1e3 * stats.node_steps / ms_per_call["median"]),
        "rss_before_mb": round(rss_before, 1), "peak_rss_mb": round(peak_rss, 1),
        "child_peak_rss_mb": round(child_peak, 1) if workers > 1 else None,
        "traced_peak_mb": round(traced_peak / 2**20, 2),
        "scan_inputs_bytes_per_event": round(nbytes(inputs) / len(table.times)),
    }


def nbytes(value) -> int:
    """The bytes of the arrays in `value`, nested in dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    items = value.values() if isinstance(value, dict) else value
    return sum(nbytes(item) for item in items)


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
        "cpus": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", nargs="+", choices=INPUTS, default=list(INPUTS), help="inputs to attribute")
    parser.add_argument("--repeats", type=int, default=20, help="timed calls per configuration")
    parser.add_argument("--paper-repeats", type=int, default=5, help="timed calls of the paper-width model")
    parser.add_argument("--warmup", type=int, default=4, help="untimed calls first (1 for the paper-width model)")
    parser.add_argument("--train-journeys", type=int, default=2000, help="journeys the desk model trains on")
    parser.add_argument("--paper-hidden", type=int, default=1024, help="units per layer of the paper-width model")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_attribute.json", help="output path")
    parser.add_argument("--run", nargs=2, metavar=("WORKDIR", "CONFIG"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:  # one configuration, in an interpreter of its own
        print(json.dumps(run_config(Path(args.run[0]), *json.loads(args.run[1]))))
        return {}

    results = []
    with tempfile.TemporaryDirectory(prefix="bench-attribution-") as work:
        work = Path(work)
        train_desk_model(work / "desk.json", args.train_journeys)
        for name in args.inputs:
            save_journeys(work / f"{name}.jsonl", make_input(name))
        for name in args.inputs:
            paper = name in PAPER
            repeats, warmup = (args.paper_repeats, min(1, args.warmup)) if paper else (args.repeats, args.warmup)
            for workers in (1, 2):
                config = json.dumps([name, workers, repeats, warmup, args.paper_hidden])
                out = subprocess.run(
                    [sys.executable, __file__, "--run", str(work), config], check=True, capture_output=True, text=True,
                )
                results.append(json.loads(out.stdout.splitlines()[-1]))
    report = {
        "bench": "attribute",
        "environment": environment(),
        "desk_model": {"preset": "desk", "train_journeys": args.train_journeys, "epochs": 2},
        "samples": SAMPLES,
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for row in results:
        ms = row["ms_per_call"]
        print(f"input={row['input']} workers={row['workers']} ms={ms['median']} [{ms['q1']}-{ms['q3']}] "
              f"windows={row['windows']} blocks={row['blocks']} node_steps={row['node_steps']} "
              f"node_steps_per_s={row['node_steps_per_s']} "
              f"peak_rss_mb={row['peak_rss_mb']} child_peak_rss_mb={row['child_peak_rss_mb']} "
              f"traced_peak_mb={row['traced_peak_mb']} "
              f"scan_inputs_bytes_per_event={row['scan_inputs_bytes_per_event']}")
    return report


if __name__ == "__main__":
    main()
