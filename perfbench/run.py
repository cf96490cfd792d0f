"""vsmeval benchmark: seeded CLI workloads timed end to end, plus a traced
run that breaks each pass down by module.

    python3 perfbench/run.py --workload bow_build --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout. The program is imported from ``src/``
and driven in process, one job at a time (a closed loop with a single
caller). Inputs are generated from ``--seed`` by ``gen.py``. After one
traced warm-up pass, passes repeat for ``--seconds``; ``run_s`` sums
each job's median time. With ``--trace 1`` untraced and traced passes
alternate and the traced ones give the per-layer metrics. Every report
of every pass must match the warm-up pass byte for byte, and the checks
in ``jobs.py`` compare one number of each report kind with
``tests/oracles.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (jobs and checks) and ``metrics``, named and
unitised as in ``BENCHMARK.json``. Lines before it, starting with ``#``,
give the environment, the inputs, every metric and, for a traced run, the
spans left unattributed.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads, so that every run
# uses the same number of threads whatever the machine's core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPS = 5
# Seconds the calibration kernel takes on the reference host. Job times
# are rescaled by it (see ``calibration_s``).
CAL_REFERENCE_S = 0.025
_CAL_VALUES = np.random.default_rng(0).random(60_000)
_CAL_MATRIX = _CAL_VALUES[:22_500].reshape(150, 150)
MODULES = ("cli", "corpus", "bow", "agreement", "combine", "manifest")


def import_vsmeval() -> dict:
    """A fresh import of the package, so each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "vsmeval" or n.startswith("vsmeval.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"vsmeval.{m}") for m in MODULES}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
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
    return "unknown"


def _sysconf(name):
    try:
        return os.sysconf(name)
    except (ValueError, OSError):
        return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "l2_bytes": _sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": _sysconf("SC_LEVEL3_CACHE_SIZE"),
        "load": os.getloadavg(),
    }


def calibration_s() -> float:
    """Seconds taken now by a fixed kernel of the work the jobs do:
    interpreted arithmetic, float repr and parse, a sort and a BLAS
    matrix product.

    The shared hosts this runs on change speed by up to a third for
    seconds at a time. Each job's wall time is multiplied by
    ``CAL_REFERENCE_S`` over the mean of the kernel times just before and
    after it, which cancels most of that drift between runs.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    [float(text) for text in map(repr, _CAL_VALUES[:8_000].tolist())]
    np.sort(_CAL_VALUES)
    _CAL_MATRIX @ _CAL_MATRIX
    return time.perf_counter() - start


def rescaled(wall: float, cal_before: float, cal_after: float) -> float:
    """``wall`` seconds at the reference host speed."""
    return wall * 2 * CAL_REFERENCE_S / (cal_before + cal_after)


class Runner:
    """Runs passes over a job list and compares each job's report bytes
    with the first pass."""

    def __init__(self, jobs, modules):
        self.jobs = jobs
        self.modules = modules
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[list[float], list[float]]:
        """One pass; returns each job's wall time and that time rescaled
        to the reference host speed."""
        gc.collect()
        wall, cal = [], [calibration_s()]
        digests = []
        for job in self.jobs:
            self.attempted += 1
            captured = io.StringIO()
            span = tracer.span(job.span) if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with redirect_stdout(captured), redirect_stderr(captured):
                    with span:
                        code, report = job.run(self.modules)
            except Exception as exc:  # a crash is a failed job, not a stop
                code, report = f"{type(exc).__name__}: {exc}", ""
            wall.append(time.perf_counter() - start)
            cal.append(calibration_s())
            if code != 0:
                self.failures.append(
                    f"{job.label}: exit {code}: {captured.getvalue()[-300:]}")
            digests.append(self._digest(job, captured.getvalue() + report))
        if self.reference is None:
            self.reference = digests
        else:
            for job, got, want in zip(self.jobs, digests, self.reference):
                if got != want:
                    self.failures.append(f"{job.label}: report differs "
                                         "from the first pass")
        scaled = [rescaled(w, a, b) for w, a, b in zip(wall, cal, cal[1:])]
        return wall, scaled

    @staticmethod
    def _digest(job, text) -> str:
        h = hashlib.sha256(text.encode())
        for path in job.outputs:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"<missing>")
        return h.hexdigest()


def pass_seconds(passes) -> float:
    """Time of one pass, as the sum over jobs of each job's median over
    ``passes``; steadier than the median pass on a shared host."""
    return sum(statistics.median(job) for job in zip(*passes))


def run_workload(workload, seed, seconds, trace, size="full") -> dict:
    import gen
    import jobs
    import spans

    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)  # jobs name their files relative to the work dir
    tracer = spans.Tracer()
    try:
        setup, setup_wall = [], []
        for _ in range(SETUP_REPS):
            before = calibration_s()
            start = time.perf_counter()
            modules = import_vsmeval()
            inputs = gen.make(workload, seed, size, ".")
            setup_wall.append(time.perf_counter() - start)
            setup.append(rescaled(setup_wall[-1], before, calibration_s()))
        bench = jobs.WORKLOADS[workload](inputs, seed)
        runner = Runner(bench.jobs, modules)
        traced, layers = [], []

        def traced_pass():
            tracer.reset()
            spans.install(tracer, modules)
            try:
                wall, scaled = runner.run_pass(tracer)
            finally:
                tracer.restore()
            traced.append(scaled)
            layers.append(spans.layer_metrics(tracer, sum(wall),
                                              jobs.CLI_COMMANDS))

        # The warm-up pass is traced: it gives the reference reports that
        # every later pass must match, and the counts the checks read.
        traced_pass()
        warmup, counts = traced.pop(), Counter(tracer.counts)
        warmup_layers = layers.pop()

        # Closed loop: one caller, each job starting when the last ends.
        untraced, untraced_wall = [], []
        start = time.perf_counter()
        while True:
            wall, scaled = runner.run_pass()
            untraced.append(scaled)
            untraced_wall.append(wall)
            if trace:
                traced_pass()
            if time.perf_counter() - start >= seconds:
                break

        peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracles
        checks = bench.check(counts)
        runner.attempted += len(checks)
        runner.failures += [f"check {name}: {detail}"
                            for name, ok, detail in checks if not ok]
        run_s = pass_seconds(untraced)
        per_layer = spans.median_metrics(layers or [warmup_layers])
        per_layer["trace.overhead_frac"] = \
            pass_seconds(traced or [warmup]) / run_s - 1.0
        end_to_end = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "wall_run_s": pass_seconds(untraced_wall),
            "work_per_s": bench.units / run_s,
            "peak_rss_mib": peak_rss_mib,
            "fail_frac": len(runner.failures) / runner.attempted,
        }
        (WORK / f"spans-{workload}.json").write_text(json.dumps(
            {"spans": tracer.spans}))
        return {
            "workload": workload, "seed": seed, "size": size,
            "inputs": gen.describe(inputs, "."),
            "work_unit": bench.unit, "units_per_pass": bench.units,
            "end_to_end": end_to_end, "per_layer": per_layer,
            "unattributed": (layers or [warmup_layers])[-1]["unattributed"],
            "setup_s": {"rescaled": setup, "wall": setup_wall},
            "job_s": {"warmup": warmup, "untraced": untraced,
                      "untraced_wall": untraced_wall, "traced": traced},
            "attempted": runner.attempted, "failures": runner.failures,
        }
    finally:
        tracer.restore()
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def _declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report(result, trace) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    end_to_end, per_layer = _declared_metrics()
    declared = per_layer if trace else end_to_end
    values = result["per_layer"] if trace else result["end_to_end"]
    env = environment()
    print("# environment " + json.dumps(env))
    print("# inputs " + json.dumps(result["inputs"]))
    print(f"# {result['workload']} seed={result['seed']} "
          f"work unit: {result['work_unit']}, "
          f"{result['units_per_pass']} per pass")
    print("# setup seconds " + json.dumps(result["setup_s"]))
    print("# job seconds per pass " + json.dumps(result["job_s"]))
    units = dict(end_to_end, fail_frac="ratio", wall_run_s="s")
    for name, value in result["end_to_end"].items():
        print(f"# {name} = {value:.6g} {units.get(name, '')}")
    if trace:
        for name, value in result["per_layer"].items():
            print(f"# {name} = {value:.6g} {per_layer.get(name, '')}")
        print("# unattributed self time (s) "
              + json.dumps(result["unattributed"]))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    (WORK / f"result-{result['workload']}-trace{trace}.json").write_text(
        json.dumps(dict(result, environment=env), indent=1))
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def selfcheck() -> int:
    """Every workload at tiny size, traced and untraced, on the code path
    of a full run; fails on any failed job or check. Not a timing gate."""
    import jobs
    bad = 0
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 1, 0, trace, size="tiny")
            out = report(result, trace)
            bad += out["failed"]
            print(f"{workload} trace={trace}: {out['attempted']} attempted, "
                  f"{out['failed']} failed")
    return 1 if bad else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["bow_build", "agreement_protocol",
                                 "resample_combine"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vsmeval" / "cli.py").is_file() or \
            not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no vsmeval sources under {ROOT}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.selfcheck:
        return selfcheck()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    out = report(result, args.trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
