#!/usr/bin/env python3
"""propspan benchmark: three workloads driven through ``propspan.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload si-train --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
first runs one untraced pass, then wraps every public propspan function
(``tracer.py``) and runs two traced passes, and reports the per-layer self
times (``layers.py``) plus the tracing overhead: traced minus untraced
``run_s``. The counts in ``layers.REPEATING_COUNTS`` must match between the
two traced passes.

The seed makes every input: the corpora, and the training seeds. Set-up is
repeated and ``setup_s`` is its median; the timed pass is repeated (at least
twice) while the next pass is expected to end within ``--seconds``, and each
end-to-end metric is the median over passes. All load comes from this one
process, with OpenBLAS pinned to one thread.

End-to-end metrics (the same names on every workload):

- ``setup_s``: set-up wall time (median of repeats);
- ``run_s``: wall time of one pass of the timed command sequence;
- ``throughput_per_s``: optimizer steps per second of the training command
  (si-train, tc-cv), or SI-annotated tokens per second (annotate-ptc);
- ``dev_f1``: best dev FLC-F1 (si-train), mean fold micro-F1 (tc-cv), or
  FLC-F1 of the SI annotation against the corpus gold (annotate-ptc);
- ``peak_rss_mb``: peak resident set size of the process.

The workload-specific figures (``classify_spans_per_s``, ``score_analyze_s``
and the rest) are printed before the result line and written, with the
environment and every shape, to ``.perfbench_out/`` in the checkout; the
traced run writes its spans there too. The last line of standard output is
the JSON result. Scratch files live in ``.perfbench_work/`` and are removed.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "run_s": "s", "throughput_per_s": "1/s",
              "dev_f1": "F1", "peak_rss_mb": "MB"}
# Each workload's own figures, printed and recorded beside the end-to-end
# metrics; THROUGHPUT and QUALITY pick the ones reported under shared names.
DETAIL_UNITS = {"train_steps_per_s": "steps/s", "annotate_tokens_per_s": "tokens/s",
                "classify_spans_per_s": "spans/s", "score_analyze_s": "s",
                "dev_f1": "F1", "pool_f1": "F1", "run_s": "s"}
THROUGHPUT = {"si-train": "train_steps_per_s", "tc-cv": "train_steps_per_s",
              "annotate-ptc": "annotate_tokens_per_s"}
QUALITY = {"si-train": "dev_f1", "tc-cv": "dev_f1", "annotate-ptc": "pool_f1"}

MIN_PASSES = 2
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["si-train", "tc-cv", "annotate-ptc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes: every command and check, almost no work")
    return p.parse_args(argv)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """Content hash of ``src/``: identifies the code where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "thread_pin": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def slice_arrays(arrays: dict, lo: int, hi: int) -> dict:
    out = {k: v[lo:hi] for k, v in arrays.items()}
    parent = out["parent"].copy()
    parent[parent >= 0] -= lo
    out["parent"] = parent
    return out


class Bench:
    def __init__(self, args):
        from workloads import FULL, TINY, WORKLOADS, Cli
        from tracer import Tracer
        self.args = args
        self.sizes = TINY if args.tiny else FULL
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.tracer = Tracer() if args.trace else None
        self.cli = Cli(self.tracer)
        self.workload = WORKLOADS[args.workload](self.sizes, args.seed, self.cli)
        self.pass_count = 0
        self.shapes: dict = {}
        self.notes: list[str] = []

    def setup(self) -> float:
        times = []
        for i in range(self.workload.setup_repeats):
            out = self.work / f"setup{i}"
            out.mkdir(parents=True)
            start = time.perf_counter()
            self.workload.setup(out)
            times.append(time.perf_counter() - start)
        self.shapes = self.workload.describe()
        return statistics.median(times)

    def one_pass(self) -> dict:
        out = self.work / f"pass{self.pass_count}"
        self.pass_count += 1
        metrics = self.workload.run_pass(out)
        shutil.rmtree(out)
        return metrics

    def measure(self) -> list[dict]:
        start = time.perf_counter()
        timed = []
        while True:
            timed.append(self.one_pass())
            elapsed = time.perf_counter() - start
            if len(timed) >= MIN_PASSES and \
                    elapsed + elapsed / len(timed) > self.args.seconds:
                return timed

    def traced(self) -> tuple[dict, list[dict]]:
        """Per-layer metrics of the traced passes, and the untraced pass before them."""
        import propspan
        from layers import REPEATING_COUNTS, per_layer_metrics
        modules = [propspan] + [sys.modules[n] for n in sorted(sys.modules)
                                if n.startswith("propspan.")]
        untraced = [self.one_pass()]
        wrapped = self.tracer.install(modules)
        self.notes.append(f"traced {wrapped} public propspan functions and methods")
        bounds, counters, traced = [], [], []
        self.cli.tracing = True
        try:
            for _ in range(TRACED_PASSES):
                lo, before = len(self.tracer.spans), Counter(self.tracer.counters)
                traced.append(self.one_pass())
                bounds.append((lo, len(self.tracer.spans)))
                counters.append(self.tracer.counters - before)
        finally:
            self.cli.tracing = False
            self.tracer.uninstall()

        arrays = self.tracer.arrays()
        names = self.tracer.names
        commands = self.cli.commands
        for name in REPEATING_COUNTS:
            seen = [per_layer_metrics(slice_arrays(arrays, lo, hi), names, cnt, 1,
                                      commands)[name]
                    for (lo, hi), cnt in zip(bounds, counters)]
            self.cli.check(len(set(seen)) == 1,
                           f"count {name} differs between traced passes: {seen}")
        layers = per_layer_metrics(arrays, names, self.tracer.counters, len(traced), commands)
        layers["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                      - statistics.median(p["run_s"] for p in untraced))
        return layers, untraced

    def write_out(self, result: dict, detail: dict) -> None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}"
        record = dict(detail, result=result)
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if self.tracer is not None:
            self.tracer.dump(out_dir / f"{stem}-spans.npz",
                             {"commands": self.cli.commands, "workload": self.args.workload,
                              "seed": self.args.seed})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "propspan" / "__init__.py").is_file():
        print(f"error: no propspan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import propspan
    if Path(propspan.__file__).resolve().parent != (SRC / "propspan").resolve():
        print(f"error: imported propspan from {propspan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import OperationFailed

    bench = Bench(args)
    name = args.workload
    layers = None
    try:
        setup_s = bench.setup()
        if args.trace:
            layers, timed = bench.traced()
        else:
            timed = bench.measure()
    except OperationFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.cli.attempted,
                          "failed": bench.cli.failed, "metrics": {}}))
        return 1
    except Exception:  # a crash in the benchmark itself: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    detail_keys = [k for k in DETAIL_UNITS if k in timed[0]]
    detail = {k: statistics.median(p[k] for p in timed) for k in detail_keys}
    e2e = {"setup_s": setup_s, "run_s": detail["run_s"],
           "throughput_per_s": detail[THROUGHPUT[name]],
           "dev_f1": detail[QUALITY[name]], "peak_rss_mb": peak_rss_mb()}
    if layers is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        from layers import UNITS
        metrics = {k: {"value": layers[k], "unit": u} for k, u in UNITS.items()}
    result = {"correct": True, "attempted": bench.cli.attempted,
              "failed": bench.cli.failed, "metrics": metrics}

    env = environment()
    print(f"workload {name} seed {args.seed} trace {args.trace} "
          f"passes {len(timed)} ({'tiny' if args.tiny else 'full'} sizes)")
    print("environment " + json.dumps(env, sort_keys=True))
    print("shapes " + json.dumps(bench.shapes, sort_keys=True))
    for note in bench.notes:
        print(note)
    for k, v in e2e.items():
        print(f"  {k:<40} {v:>14.6g} {END_TO_END[k]}")
    for k in detail_keys:
        print(f"  {name}.{k:<40} {detail[k]:>14.6g} {DETAIL_UNITS[k]}")
    if layers is not None:
        for k, u in UNITS.items():
            print(f"  {k:<40} {layers[k]:>14.6g} {u}")
    print(f"  operations attempted {bench.cli.attempted} failed {bench.cli.failed}")
    bench.write_out(result, {"workload": name, "seed": args.seed, "trace": args.trace,
                             "environment": env, "shapes": bench.shapes,
                             "sizes": asdict(bench.sizes), "setup_s": setup_s,
                             "passes": timed, "end_to_end": e2e, "detail": detail,
                             "per_layer": layers})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
