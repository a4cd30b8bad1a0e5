"""Time one SGD step of the two-stage training wavefront.

Runs `trainer._Wavefront.step` on seeded random batches at one and at two
processes (at one only for a one-layer model, which has no helper), for
each journey length T, and reports per configuration the median and
quartiles of:

- step_ms: one step, its update and the read of the next batch included;
- blocked_ms: the caller's time blocked in `_Wavefront._wait`, waiting for
  the helper (0 at one process);
- gap_ms: from the end of one step's backward, the caller's wait for the
  helper's last gradients (on two processes its last `_wait` but one: the
  last waits for the end of the helper's update), to its first send of the
  next step: the norm, the update and the read of the next batch, as far
  as they are not done in the step's waits.

The configurations run interleaved, a block of steps each in turn, so that
a slow spell of the host spreads over all of them. Writes
BENCH_train_step.json with the environment.

    python bench/layers.py                      # desk shape, T = 1..4
    python bench/layers.py --layers 1 --out one-layer.json
    python bench/layers.py --batch 4 --hidden 8 --lengths 1 2 --repeats 3 --out /tmp/b.json

The two-process T = 2 row is bimodal from one run of the script to the
next, whatever the commit: alternating two commits on a 2-vCPU x86 host,
its median read 1.39-1.40 ms in some runs and 1.54-1.59 ms in others,
while T = 1, 3 and 4 moved by 1-4%. Compare that row over several runs,
alternating the commits, before reading a change into it.

BENCH_train_step_parent.json holds the numbers of commit 9ddac1a, the code
before training stepped through the gate-major cell kernel
(`model.gate_major_step`) in place of the row-major `cell_step`. The two
files come from runs alternating the two commits on one host. The script
runs unchanged on that code:

    git archive 9ddac1a | tar -x -C <dir>
    cd <dir> && python bench/layers.py --out BENCH_train_step_parent.json
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from deepmta import trainer  # noqa: E402
from deepmta.journey import JourneyTable  # noqa: E402
from deepmta.model import _dropout_draws, init_params  # noqa: E402

INPUT_DIM = 12  # the desk dataset's 8 channels, 3 campaigns and hour offset
SEED = 0


def quartiles(values: list[float]) -> dict[str, float | None]:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


class Timed:
    """One configuration: a wavefront whose `_wait` and `_send` record their
    times, and its seeded batches."""

    def __init__(self, processes: int, T: int, B: int, H: int, layers: int, seed: int):
        self.rng = np.random.default_rng(seed)
        self.cfg = trainer.TrainConfig.preset("desk", batch_size=B, hidden_size=H, n_layers=layers)
        params = init_params(INPUT_DIM, H, self.cfg.n_layers, dropout_p=self.cfg.dropout_p, rng=self.rng)
        # sizes the exchange arrays for B journeys of T events; no validation
        table = JourneyTable(
            features=np.zeros((T, INPUT_DIM)), times=np.zeros(T), labels=np.zeros(T, dtype=np.int64),
            lengths=np.array([T]),
        )
        self.wavefront = trainer._Wavefront(params, self.cfg, table, np.arange(0), processes)
        self.processes, self.T, self.B = processes, T, B
        self.step_ms, self.blocked_ms, self.gap_ms = [], [], []
        self.sends, self.wait_ends, self.blocked = [], [], 0.0
        self.pending = self.batch()

    def batch(self):
        B, T = self.B, self.T
        feats = np.zeros((B, T, INPUT_DIM))
        feats[np.arange(B)[:, None], np.arange(T), self.rng.integers(0, 8, (B, T))] = 1.0
        feats[np.arange(B)[:, None], np.arange(T), 8 + self.rng.integers(0, 3, (B, T))] = 1.0
        times = np.cumsum(self.rng.uniform(0, 12, (B, T)), axis=1)
        times -= times[:, :1]
        # the hour offset, zeroed where the preset ablates it, as `train` does
        feats[..., -1] = times if self.cfg.use_time_feature else 0.0
        labels = np.zeros((B, T), dtype=np.int64)
        labels[:, -1] = self.rng.random(B) < 0.3
        masks = _dropout_draws(self.rng, (B, T, self.cfg.hidden_size), self.cfg.dropout_p, self.cfg.n_layers - 1)
        return feats, times, labels, masks

    def __enter__(self) -> "Timed":
        wavefront = self.wavefront.__enter__()
        send, wait = wavefront._send, wavefront._wait

        def timed_send(*args):
            self.sends.append(time.perf_counter())
            send(*args)

        def timed_wait():
            start = time.perf_counter()
            wait()
            self.wait_ends.append(time.perf_counter())
            self.blocked += self.wait_ends[-1] - start

        wavefront._send, wavefront._wait = timed_send, timed_wait
        return self

    def __exit__(self, *exc) -> None:
        self.wavefront.__exit__(*exc)

    def run(self, steps: int, record: bool) -> None:
        ahead = []

        def fetch():
            ahead.append(self.batch())

        last_end = None
        for _ in range(steps):
            self.sends.clear()
            self.wait_ends.clear()
            self.blocked = 0.0
            start = time.perf_counter()
            loss, norm = self.wavefront.step(*self.pending, fetch)
            if norm is None:
                raise RuntimeError(f"the loss is not finite: {loss}")
            self.pending = ahead.pop() if ahead else self.batch()
            end = time.perf_counter()
            if record:
                self.step_ms.append(1e3 * (end - start))
                self.blocked_ms.append(1e3 * self.blocked)
                if last_end is not None:
                    self.gap_ms.append(1e3 * (self.sends[0] - last_end))
            # the helper's end of backward; on two processes a wait for the
            # end of its update follows
            end = -2 if self.processes > 1 else -1
            last_end = self.wait_ends[end] if len(self.wait_ends) >= -end else None

    def result(self) -> dict:
        return {
            "processes": self.processes, "T": self.T, "steps": len(self.step_ms),
            "step_ms": quartiles(self.step_ms), "blocked_ms": quartiles(self.blocked_ms),
            "gap_ms": quartiles(self.gap_ms),
        }


def bench(lengths, B: int, H: int, layers: int, repeats: int, block: int) -> list[dict]:
    with contextlib.ExitStack() as stack:
        configs = [
            stack.enter_context(Timed(processes, T, B, H, layers, SEED + T))
            for T in lengths for processes in ((1, 2) if layers > 1 else (1,))
        ]
        for config in configs:  # warm-up: the first allocations
            config.run(min(block, repeats), record=False)
        done = 0
        while done < repeats:
            n = min(block, repeats - done)
            for config in configs:
                config.run(n, record=True)
            done += n
        return [config.result() for config in configs]


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(),
        "cpus": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lengths", type=int, nargs="+", default=[1, 2, 3, 4], help="journey lengths T")
    parser.add_argument("--batch", type=int, default=32, help="journeys per batch B")
    parser.add_argument("--hidden", type=int, default=64, help="units per layer H")
    parser.add_argument("--layers", type=int, default=2, help="recurrent layers (2, the desk shape)")
    parser.add_argument("--repeats", type=int, default=300, help="timed steps per configuration")
    parser.add_argument("--block", type=int, default=25, help="steps per configuration per turn")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_train_step.json", help="output path")
    args = parser.parse_args(argv)
    desk = trainer.TrainConfig.preset("desk")
    report = {
        "bench": "train_step",
        "environment": environment(),
        "shape": {
            "B": args.batch, "H": args.hidden, "input_dim": INPUT_DIM, "n_layers": args.layers,
            "dropout_p": desk.dropout_p,
        },
        "repeats": args.repeats,
        "results": bench(args.lengths, args.batch, args.hidden, args.layers, args.repeats, args.block),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for row in report["results"]:
        step = row["step_ms"]
        print(f"processes={row['processes']} T={row['T']} step_ms={step['median']} [{step['q1']}-{step['q3']}] "
              f"blocked_ms={row['blocked_ms']['median']} gap_ms={row['gap_ms']['median']}")
    return report


if __name__ == "__main__":
    main()
