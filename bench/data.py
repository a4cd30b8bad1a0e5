"""Time the data stages: `gen` at one and two workers, and the journey reader.

Two rows, each on the README's acceptance dataset (8 channels, 3
campaigns, key lift 0.6 on channel 0, base rate 0.2, a 48 h span, journeys
of 1-4 events, converted or not), the shape of perfbench's pipeline-desk
passes:

- gen: `deepmta gen` through `cli.main`, in process as perfbench runs it,
  at `MTA_THREADS` 1 and 2 (`workers`); from two workers on, `gen` forks
  one writer process that builds, checks and writes the journeys while
  the caller draws;
- journey_table: `journey_table(iter_journeys(path), vocab)` over the
  file gen wrote, as `train` and `eval` read their data.

Each reports the median and quartiles of ms per 1000 journeys over the
timed calls, after warm-up calls. Writes BENCH_data.json with the
environment.

    python bench/data.py
    python bench/data.py --journeys 2000 --repeats 5 --out /tmp/d.json

BENCH_data_parent.json holds the numbers of the code before gen's writer
process (commit 1714972), whose `gen` runs on one process at any
`MTA_THREADS`. The script uses only `cli.main`, `iter_journeys`,
`journey_table` and `load_vocabulary`, so it runs unchanged on that code:

    git archive 1714972 | tar -x -C <dir>
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
from deepmta.journey import iter_journeys, journey_table, load_vocabulary  # noqa: E402

# perfbench's acceptance dataset, as its pipeline-desk passes generate it
GEN = ["--channels", "8", "--campaigns", "3", "--key-channel", "0", "--key-lift", "0.6", "--base-rate", "0.2",
       "--time-span-hours", "48", "--max-len", "4", "--include-nonconverted"]
SEED = 11


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


def gen(path: Path, journeys: int, workers: int) -> None:
    os.environ["MTA_THREADS"] = str(workers)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["gen", "--out", str(path), "--journeys", str(journeys), *GEN, "--seed", str(SEED)])
    if code:
        raise RuntimeError(f"gen exited {code}: {out.getvalue()}")


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
    parser.add_argument("--journeys", type=int, default=10_000, help="journeys per gen call and in the read file")
    parser.add_argument("--repeats", type=int, default=20, help="timed calls per row")
    parser.add_argument("--warmup", type=int, default=3, help="untimed calls first")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_data.json", help="output path")
    args = parser.parse_args(argv)

    threads = os.environ.get("MTA_THREADS")
    results = []
    try:
        with tempfile.TemporaryDirectory(prefix="bench-data-") as work:
            path = Path(work) / "journeys.jsonl"
            for workers in (1, 2):
                seconds = timed(lambda: gen(path, args.journeys, workers), args.repeats, args.warmup)
                results.append(row("gen", workers, args.journeys, seconds))
            vocab = load_vocabulary(path.with_suffix(".vocab.json"))
            seconds = timed(lambda: journey_table(iter_journeys(path), vocab), args.repeats, args.warmup)
            results.append(row("journey_table", 1, args.journeys, seconds))
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
