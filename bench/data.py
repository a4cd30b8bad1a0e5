"""Time the data stages: `gen` and `eval` at one and two workers, and the journey reader.

Rows on the README's acceptance dataset (8 channels, 3 campaigns, key
lift 0.6 on channel 0, base rate 0.2, a 48 h span, journeys of 1-4
events, converted or not), the shape of perfbench's pipeline-desk passes,
whose train file is the first 90% of gen's file and whose holdout the last
10%:

- gen: `deepmta gen` through `cli.main`, in process as perfbench runs it,
  at `MTA_THREADS` 1 and 2 (`workers`); from two workers on, `gen` forks
  one writer process that builds, checks and writes the journeys while
  the caller draws;
- journey_table: `journey_table(iter_journeys(path), vocab)` over the
  whole file gen wrote;
- read_table: `read_table(path, vocab, workers)` over the train file, as
  `train` reads it, at 1 and 2 workers; from two on, a forked reader
  process reads the file's second half. On code without `read_table` the
  row times `journey_table(iter_journeys(path), vocab)` at either count;
- eval: `deepmta eval` through `cli.main` on the holdout, with a one-epoch
  desk model trained on the train file, at `MTA_THREADS` 1 and 2; from two
  on, eval reads its file on two processes, and its 1000 journeys make
  four blocks, which it scores on two;
- eval_lengths_1_20: the same model's `eval` on the attribute workloads'
  shape: three converted journeys of each length 1-20 (60 journeys, one
  block), drawn from `gen --max-len 20` of the same channels and
  campaigns, at `MTA_THREADS` 1 and 2.

Each reports the median and quartiles of ms per 1000 journeys over the
timed calls, after warm-up calls. Writes BENCH_data.json with the
environment.

    python bench/data.py
    python bench/data.py --journeys 2000 --repeats 5 --out /tmp/d.json

BENCH_data_parent.json holds the numbers of the code before eval and
validation scored through the trie scan (commit 07c5f78), whose `eval`
ran one forward per journey length, in length-bucketed batches of up to
256 journeys, and forked its scorer for two batches or more. The script
uses only `cli.main`, `iter_journeys`, `journey_table`, `load_vocabulary`
and `read_table`, so it runs unchanged on that code:

    git archive 07c5f78 | tar -x -C <dir>
    cp bench/data.py <dir>/bench/
    cd <dir> && python bench/data.py --out BENCH_data_parent.json
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from deepmta import cli  # noqa: E402
from deepmta.journey import iter_journeys, journey_table, load_vocabulary, read_table  # noqa: E402

# perfbench's acceptance dataset, as its pipeline-desk passes generate it
ACCEPTANCE = ["--channels", "8", "--campaigns", "3", "--key-channel", "0", "--key-lift", "0.6", "--base-rate", "0.2",
              "--time-span-hours", "48"]
GEN = [*ACCEPTANCE, "--max-len", "4", "--include-nonconverted"]
SEED = 11
# the attribute workloads' shape: converted journeys, a few of each length
LENGTHS, PER_LENGTH, POOL = range(1, 21), 3, 2000


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 3), "q1": round(float(q1), 3), "q3": round(float(q3), 3)}


def timed(fn, repeats: int, warmup: int) -> list[float]:
    """Seconds of each call of fn after the warm-up calls."""
    seconds = []
    for call in range(warmup + repeats):
        start = time.perf_counter()
        fn()
        if call >= warmup:
            seconds.append(time.perf_counter() - start)
    return seconds


def run(workers: int, *argv) -> None:
    """One CLI command through cli.main at MTA_THREADS=workers, its output
    dropped."""
    os.environ["MTA_THREADS"] = str(workers)
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    if code:
        raise RuntimeError(f"{argv[0]} exited {code}: {out.getvalue()}")


def gen(path: Path, journeys: int, workers: int) -> None:
    run(workers, "gen", "--out", path, "--journeys", journeys, *GEN, "--seed", SEED)


def lengths_1_20(work: Path) -> list[bytes]:
    """PER_LENGTH lines of each length of LENGTHS, the first of a pool of
    converted journeys, in length order."""
    pool = work / "pool.jsonl"
    run(1, "gen", "--out", pool, "--journeys", POOL, *ACCEPTANCE, "--max-len", max(LENGTHS), "--seed", SEED)
    by_length = {n: [] for n in LENGTHS}
    for line in pool.read_bytes().splitlines(keepends=True):
        taken = by_length[len(json.loads(line)["events"])]
        if len(taken) < PER_LENGTH:
            taken.append(line)
    return [line for n in LENGTHS for line in by_length[n]]


def row(stage: str, workers: int, journeys: int, seconds: list[float]) -> dict:
    per_1000 = [1e6 * s / journeys for s in seconds]
    return {"stage": stage, "workers": workers, "journeys": journeys, "calls": len(seconds),
            "ms_per_1000": quartiles(per_1000)}


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
        "cpus": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--journeys", type=int, default=10_000, help="journeys per gen call; train file and holdout split them 9:1")
    parser.add_argument("--repeats", type=int, default=20, help="timed calls per row")
    parser.add_argument("--warmup", type=int, default=3, help="untimed calls first")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_data.json", help="output path")
    args = parser.parse_args(argv)

    threads = os.environ.get("MTA_THREADS")
    results = []
    try:
        with tempfile.TemporaryDirectory(prefix="bench-data-") as work:
            work = Path(work)
            path = work / "journeys.jsonl"
            for workers in (1, 2):
                seconds = timed(lambda: gen(path, args.journeys, workers), args.repeats, args.warmup)
                results.append(row("gen", workers, args.journeys, seconds))
            vocab_path = path.with_suffix(".vocab.json")
            vocab = load_vocabulary(vocab_path)
            seconds = timed(lambda: journey_table(iter_journeys(path), vocab), args.repeats, args.warmup)
            results.append(row("journey_table", 1, args.journeys, seconds))

            lines = path.read_bytes().splitlines(keepends=True)
            holdout = len(lines) // 10
            train, test = work / "train.jsonl", work / "holdout.jsonl"
            train.write_bytes(b"".join(lines[:-holdout]))
            test.write_bytes(b"".join(lines[-holdout:]))
            for workers in (1, 2):
                seconds = timed(lambda: read_table(train, vocab, workers), args.repeats, args.warmup)
                results.append(row("read_table", workers, len(lines) - holdout, seconds))
            model = work / "model.json"
            run(2, "train", "--data", train, "--vocab", vocab_path, "--out", model, "--epochs", 1, "--seed", 3)
            short = work / "lengths.jsonl"
            short.write_bytes(b"".join(lengths_1_20(work)))
            for stage, data, journeys in (("eval", test, holdout), ("eval_lengths_1_20", short, len(LENGTHS) * PER_LENGTH)):
                for workers in (1, 2):
                    command = ("eval", "--model", model, "--data", data, "--roc-out", work / "roc.csv")
                    seconds = timed(lambda: run(workers, *command), args.repeats, args.warmup)
                    results.append(row(stage, workers, journeys, seconds))
    finally:
        if threads is None:
            os.environ.pop("MTA_THREADS", None)
        else:
            os.environ["MTA_THREADS"] = threads
    report = {
        "bench": "data",
        "environment": environment(),
        "gen_args": GEN + ["--seed", str(SEED)],
        "results": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for result in results:
        ms = result["ms_per_1000"]
        print(f"stage={result['stage']} workers={result['workers']} journeys={result['journeys']} "
              f"ms_per_1000={ms['median']} [{ms['q1']}-{ms['q3']}]")
    return report


if __name__ == "__main__":
    main()
