"""Benchmark of the deepmta train -> attribute pipeline.

    python3 perfbench/run.py --workload pipeline-desk --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it sits
in, drives it through ``deepmta.cli.main`` and prints one JSON result as the
last line of stdout. ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` the per-layer metrics of a traced run. The line before the result is a
JSON record of the environment, the output digests and the traced counts; it
is also written to ``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REFERENCE_PASSES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict:
    """One BLAS thread, and at most two attribution workers. Must run
    before numpy is imported: unpinned BLAS threads oversubscribe the
    attribution pool and measure the scheduler instead of the program."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MTA_THREADS"] = str(min(2, nproc))
    return {"nproc": nproc, **{var: os.environ[var] for var in (*THREAD_VARS, "MTA_THREADS")}}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None in
    a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads: dict, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        **threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "seed": seed,
    }


def train_rate(passes, setup_training) -> float:
    """Training throughput: the median over passes that train, else the
    set-up training of the frozen model pooled over its repeats."""
    rates = [p.train_rate for p in passes if p.train_rate is not None]
    if rates:
        return statistics.median(rates)
    trained = [t for t in setup_training if t is not None]
    seconds = sum(s for _, s in trained)
    return sum(j for j, _ in trained) / seconds if seconds else 0.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "deepmta" / "cli.py").is_file():
        print(f"error: no deepmta package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2

    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import deepmta

    if Path(deepmta.__file__).resolve().parent != (SRC / "deepmta").resolve():
        print(f"error: deepmta imported from {deepmta.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from layers import layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS, Run, StageFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    run = Run(work=work)
    n_passes = workload.passes(args.seconds)
    tracer = Tracer(args.workload) if args.trace else None
    setup_s, setup_training = [], []
    passes, references = {}, {}

    def one_pass(index: int, traced: bool) -> None:
        run.tracer = tracer if traced else None
        if traced:
            tracer.install()
        target = references if tracer and not traced else passes
        try:
            with run.span("pass", index=index):
                target[index] = workload.run_pass(run, args.seed, index)
        except StageFailed:
            pass
        except (KeyError, ValueError, TypeError, OSError) as exc:  # malformed output files
            run.check(False, f"pass {index}: {exc!r}")
        finally:
            if traced:
                tracer.uninstall()

    def set_up() -> None:
        start = time.perf_counter()
        run.import_probe(SRC)
        setup_training.append(workload.setup(run, args.seed, n_passes))
        setup_s.append(time.perf_counter() - start)

    # the set-ups are spread over the run, so that their median samples the
    # machine's drift over the run rather than one moment of it; each one
    # rewrites the same inputs
    schedule = [i * n_passes // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    try:
        for index in range(n_passes):
            for _ in range(schedule.count(index)):
                set_up()
            if tracer and index < REFERENCE_PASSES:
                # untraced copies of the first passes, in ABBA order against
                # drift, are the base of trace.overhead_share
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    one_pass(index, traced)
            else:
                one_pass(index, bool(tracer))
    except StageFailed:
        pass
    except (KeyError, ValueError, TypeError, OSError) as exc:
        run.check(False, f"setup: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.check(len(passes) == n_passes, f"{n_passes - len(passes)} of {n_passes} passes failed")
    for index, reference in references.items():
        run.check(
            index in passes
            and (reference.checkpoint_sha, reference.attribution_sha)
            == (passes[index].checkpoint_sha, passes[index].attribution_sha),
            f"traced pass {index} output differs from its untraced copy",
        )
    if workload.shared_model:
        run.check(
            len({p.checkpoint_sha for p in passes.values()}) <= 1,
            "the frozen model differs between set-ups",
        )
    paired = [i for i in references if i in passes]
    untraced_wall = sum(references[i].wall for i in paired)
    traced_wall = sum(passes[i].wall for i in paired)
    passes = [passes[i] for i in sorted(passes)]

    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else 0.0

    probes = [p for p in passes if p.probe]
    wins = sum(p.wins for p in probes)
    eligible = sum(p.eligible for p in probes)
    if args.trace:
        metrics = layer_metrics(tracer.spans, max(1, len(passes)), int(threads["MTA_THREADS"]))
        overhead = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
        metrics["trace.overhead_share"] = (overhead, "share")
    else:
        metrics = {
            "setup_s": (median(setup_s), "s"),
            "pipeline_s": (median(p.wall for p in passes), "s"),
            "train_journeys_per_s": (train_rate(passes, setup_training), "journey-epochs/s"),
            "attr_journeys_per_s": (median(p.attr_rate for p in passes), "journeys/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "auc": (median(p.auc for p in probes), "ratio"),
            "key_channel_win_rate": (wins / eligible if eligible else 0.0, "share"),
        }

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": n_passes,
        "environment": environment(threads, args.seed),
        "checkpoint_sha256": [p.checkpoint_sha for p in passes],
        "attribution_sha256": [p.attribution_sha for p in passes],
        "key_channel": {"wins": wins, "eligible": eligible},
        "setup_s": setup_s,
        "pass_s": [p.wall for p in passes],
        "stage_s": [p.stages for p in passes],
        "errors": run.errors[:20],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write(out_dir / f"{label}.spans.jsonl.gz")
    print(json.dumps(record))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
