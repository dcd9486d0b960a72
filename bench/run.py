"""The catzeta benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Workloads are described in workloads.py.  With --trace 0 the run measures
end-to-end metrics with nothing patched; with --trace 1 it alternates
untraced and traced passes and reports per-layer self times and counts
(see spans.py), each per traced pass; cli.import_s and cli.main_s come
from probes that every traced run makes, whatever its workload.  Every output is checked: each
pass must reproduce the first pass exactly, verify must pass, and the
first pass is checked against bench/golden.json (corpus, cli) and against
the independent modular oracle (oracle.py).

End-to-end times are scaled to a reference host speed, pass by pass, with
a calibration kernel timed between items (measure.HostSpeed): on a shared
machine the speed of unchanged code drifts by tens of percent from one
minute to the next, and the kernel drifts with it.  The times as measured
on this host are printed on the info line next to the scaled ones.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it records the environment, input properties, failed
ratio and sample counts.  Exit code 2 means catzeta could not be found
or set up, and then no result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from benchpath import ROOT, SRC, require_catzeta

require_catzeta()

import catzeta  # noqa: E402  (needs the checkout's src/ on sys.path first)
import catzeta.cli as cli  # noqa: E402
import catzeta.zeta as zeta  # noqa: E402
import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
IMPORT_PROBES = 5


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- set-up time ----------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> float:
    """Launch a fresh interpreter; time until it has imported catzeta and
    built the workload's inputs."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        sys.stderr.write(err.decode(errors="replace"))
        raise SystemExit(2)
    return elapsed


def import_seconds() -> float:
    """Median cost of `import catzeta.cli` above a bare interpreter start."""
    def launch(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        return perf_counter() - t0

    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(launch("pass"))
        loaded.append(launch("import catzeta.cli"))
    return statistics.median(loaded) - statistics.median(bare)


# -- calls and output checks ----------------------------------------------------

def verify_call(item):
    return zeta.verify_matrix(item.matrix, order=workloads.ORDER,
                              precision_bits=workloads.PRECISION)


CLI_TIMEOUT_S = 60


def cli_subprocess_call(item):
    proc = subprocess.run([sys.executable, "-m", "catzeta.cli", *item.argv],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, proc.stdout


def cli_inprocess_call(item):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(list(item.argv))
    return code, buf.getvalue().encode()


def _text(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, tuple):
        return [_text(v) for v in value]
    return str(value)


def report_doc(report) -> dict:
    """Every field of a VerificationReport, as JSON-ready text."""
    return {f.name: _text(getattr(report, f.name)) for f in fields(report)}


def flags(report) -> list:
    return [report.c1_pass, report.c2_pass, report.c3_pass, report.c4_pass]


def _cli_doc(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError:
        return {}


class Outputs:
    """Checks each output against the item's first one and keeps the first."""

    def __init__(self, golden_cli: dict) -> None:
        self.golden_cli = golden_cli
        self.first: dict = {}

    def report(self, item, report) -> bool:
        key = oracle.fingerprint(report_doc(report))
        first_key, _ = self.first.setdefault(item.label, (key, report))
        path_ok = item.expected_path is None or report.path == item.expected_path
        return report.passed and path_ok and key == first_key

    def cli(self, item, out) -> bool:
        code, stdout = out
        first = self.first.setdefault(item.label, stdout)
        passed = _cli_doc(stdout).get("passed") is True
        return (code == 0 and passed and stdout == first
                and sha256(stdout) == self.golden_cli.get(item.label))


def item_content(matrix, report) -> dict:
    """The exact results fingerprinted per item: d, k, m, the zeta
    coefficients through the verify order, chi, path and verify flags."""
    bundle = catzeta.char_poly_bundle(matrix)
    series = catzeta.zeta_series(matrix, report.order)
    return {
        "d": [str(c) for c in bundle.d.coeffs],
        "k": [str(c) for c in bundle.k.coeffs],
        "m": [str(c) for c in bundle.m.coeffs],
        "zeta": [str(c) for c in series.coeffs],
        "chi": None if report.chi is None else str(report.chi),
        "path": report.path,
        "flags": flags(report),
    }


def reference_problems(items, outputs: Outputs, golden_corpus: dict | None,
                       z: int) -> tuple[dict, dict]:
    """Check every item's first report and exact content once per run.

    Returns (problems by label, contents by label).
    """
    problems, contents = {}, {}
    for item in items:
        if item.label not in outputs.first:
            continue
        _, report = outputs.first[item.label]
        content = item_content(item.matrix, report)
        contents[item.label] = content
        found = oracle.check_content([list(r) for r in item.matrix.rows], content, z,
                                     item.expected_path)
        if golden_corpus is not None and \
                oracle.fingerprint(content) != golden_corpus.get(item.label):
            found.append("fingerprint differs from bench/golden.json")
        if found:
            problems[item.label] = found
    return problems, contents


# -- input properties ----------------------------------------------------------

def _coeff_bits(fractions) -> int:
    """Largest numerator or denominator, in bits."""
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in fractions), default=0)


def _den_bits(fractions) -> int:
    return max((x.denominator.bit_length() for x in fractions), default=0)


def input_properties(workload: str, items, outputs: Outputs, contents: dict) -> dict:
    if workload == "cli":
        docs = [_cli_doc(out) for out in outputs.first.values()]
        ns = [doc["n"] for doc in docs if "n" in doc]
        paths = [doc.get("path") for doc in docs]
        orders = list(workloads.CLI_ORDERS)
    else:
        ns = [item.n for item in items]
        paths = [report.path for _, report in outputs.first.values()]
        orders = [workloads.ORDER]
    props = {
        "items_per_pass": len(items),
        "n_min": min(ns, default=None),
        "n_max": max(ns, default=None),
        "order_k": orders,
        "numeric_share": paths.count("numeric") / len(paths) if paths else None,
    }
    if contents:
        props["coeff_bits"] = max(_coeff_bits(Fraction(c) for key in "dkm" for c in doc[key])
                                  for doc in contents.values())
        props["zeta_den_bits"] = max(_den_bits(Fraction(c) for c in doc["zeta"])
                                     for doc in contents.values())
    return props


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- the two kinds of run --------------------------------------------------------

def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end_metrics(attempts, items_per_pass: int, rss: float, setup: float,
                       speed: measure.HostSpeed):
    """Times as measured on this host (info line), and scaled pass by pass
    to the reference host (metrics)."""
    rates = measure.pass_rates(attempts, items_per_pass)
    latencies = [a.seconds for a in attempts]
    scaled = [a.seconds * speed.scale(a.pass_no) for a in attempts]
    measured = {
        "items_per_s": statistics.median(rates.values()),
        "item_p50_ms": measure.percentile(latencies, 0.5) * 1e3,
        "item_p90_ms": measure.percentile(latencies, measure.P90) * 1e3,
        "setup_s": setup,
    }
    metrics = {
        "items_per_s": (statistics.median(r / speed.scale(p) for p, r in rates.items()),
                        "1/s"),
        "item_p50_ms": (measure.percentile(scaled, 0.5) * 1e3, "ms"),
        "item_p90_ms": (measure.percentile(scaled, measure.P90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup * speed.scale("setup"), "s"),
    }
    calibration = speed.all_samples()
    info = {"samples": len(attempts),
            "samples_beyond_p90": measure.samples_beyond(len(attempts), measure.P90),
            "passes": len(rates),
            "measured_on_this_host": measured,
            "host_speed": {"calibration_mean_s": statistics.fmean(calibration),
                           "calibration_samples": len(calibration),
                           "reference_s": measure.REFERENCE_S}}
    return metrics, info


LAYER_TIMES = {  # metric -> span name
    "charpoly.bundle_s": "charpoly.bundle",
    "poly.interp_s": "poly.interp",
    "roots.factor_s": "roots.factor",
    "roots.numeric_s": "roots.numeric",
    "poly.squarefree_s": "poly.squarefree",
    "roots.rational_s": "roots.rational",
    "zeta.series_s": "zeta.series",
    "category.matmul_s": "category.matmul",
    "series.exp_s": "series.exp",
    "series.mul_s": "series.mul",
    "series.inv_s": "series.inv",
    "zeta.taylor_s": "zeta.taylor",
    "zeta.pfd_s": "zeta.pfd",
    "zeta.closed_s": "zeta.closed",
    "zeta.checks_s": "zeta.checks",
    "euler.s": "euler",
}
LAYER_CALLS = {
    "charpoly.det_calls": "charpoly.det",
    "category.matmul_calls": "category.matmul",
    "series.exp_calls": "series.exp",
    "series.mul_calls": "series.mul",
    "series.inv_calls": "series.inv",
}


def cli_main_seconds() -> float:
    """Self time of cli_main (parsing, loading, JSON output) over the 11
    fixtures verified in-process at the smaller order; a probe every traced
    run makes, whatever its workload."""
    probe = spans.Tracer()
    with probe:
        for item in workloads.cli_items():
            if item.argv[-1] == str(workloads.CLI_ORDERS[0]):
                cli_inprocess_call(item)
    return spans.self_times(probe.spans).get("cli.main", 0.0)


def traced(items, call, check, seconds):
    """Alternate untraced and traced passes; per-layer numbers per traced pass."""
    tracer = spans.Tracer()
    attempts, plain_s, traced_s, passes = [], 0.0, 0.0, 0
    reported: set = set()
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        plain = measure.run_pass(items, call, check, 2 * passes, reported)
        with tracer:
            timed = measure.run_pass(items, call, check, 2 * passes + 1, reported)
        attempts += plain + timed
        plain_s += sum(a.seconds for a in plain)
        traced_s += sum(a.seconds for a in timed)
        passes += 1

    self_s = spans.self_times(tracer.spans)
    incl_s = spans.inclusive_times(tracer.spans)
    reports = tracer.returned["zeta.checks"]
    overhead = plain_s / traced_s
    coverage = sum(self_s.values()) / traced_s
    metrics = {name: (self_s.get(span, 0.0) / passes, "s")
               for name, span in LAYER_TIMES.items()}
    metrics.update({name: (tracer.calls[span] / passes, "count")
                    for name, span in LAYER_CALLS.items()})
    metrics.update({
        "roots.numeric_degree": (tracer.numeric_degree / passes, "count"),
        "roots.errors": (tracer.errors[("roots.factor", "RootFindingError")] / passes,
                         "count"),
        "zeta.check_fails": (sum(flags(r).count(False) for r in reports) / passes, "count"),
        "cli.import_s": (import_seconds(), "s"),
        "cli.main_s": (cli_main_seconds(), "s"),
        "charpoly.coeff_bits": (max((_coeff_bits(b.d.coeffs + b.k.coeffs + b.m.coeffs)
                                     for b in tracer.returned["charpoly.bundle"]),
                                    default=0), "bits"),
        "series.den_bits": (max((_den_bits(s.coeffs) for s in tracer.returned["zeta.series"]),
                                default=0), "bits"),
        "roots.numeric_share": (sum(r.path == "numeric" for r in reports) / len(reports)
                                if reports else 0.0, "ratio"),
        "charpoly.bundle_share": (incl_s.get("charpoly.bundle", 0.0) / traced_s, "ratio"),
        "roots.factor_share": (incl_s.get("roots.factor", 0.0) / traced_s, "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.coverage": (coverage, "ratio"),
    })
    # Self times must add up to the traced item time; what is missing is
    # wrapper bookkeeping outside the root span, bounded by the overhead.
    gap = 1 - coverage
    coverage_ok = -1e-9 <= gap <= max(1 - overhead, 0) + 0.01
    if not coverage_ok:
        print(f"self times cover {coverage:.4f} of traced item time", file=sys.stderr)
    shares = {span: round(t / traced_s, 4)
              for span, t in sorted(self_s.items(), key=lambda kv: -kv[1])}
    info = {"traced_passes": passes, "self_time_share": shares,
            "inclusive_share": {span: round(t / traced_s, 4) for span, t in incl_s.items()}}
    return attempts, metrics, info, coverage_ok


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    items = workloads.build(args.workload, args.seed)
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh)
    outputs = Outputs(golden["cli"])

    if args.workload == "cli":
        check = outputs.cli
        call = cli_inprocess_call if args.trace else cli_subprocess_call
    else:
        check, call = outputs.report, verify_call
    if args.trace:
        attempts, metrics, info, consistent = traced(items, call, check, args.seconds)
    else:
        speed = measure.HostSpeed()
        probes = []
        for _ in range(SETUP_PROBES):
            speed.sample("setup")
            probes.append(setup_seconds(args.workload, args.seed))
        speed.sample("setup")
        setup = statistics.median(probes)
        attempts = measure.run_for(items, call, check, args.seconds, measure.min_samples(),
                                   speed)
        rss = peak_rss_mb(args.workload)
        consistent = True

    problems, contents = {}, {}
    if args.workload != "cli":
        z = random.Random(f"oracle/{args.seed}").randrange(2, oracle.PRIME)
        golden_corpus = golden["corpus"] if args.workload == "corpus" else None
        problems, contents = reference_problems(items, outputs, golden_corpus, z)
    for label, found in sorted(problems.items()):
        print(f"{label}: {'; '.join(found)}", file=sys.stderr)
    for a in attempts:
        a.ok = a.ok and a.label not in problems
    failed = sum(not a.ok for a in attempts)
    if not args.trace:
        metrics, info = end_to_end_metrics(attempts, len(items), rss, setup, speed)

    info.update({
        "workload": args.workload,
        "environment": environment(args.seed),
        "inputs": input_properties(args.workload, items, outputs, contents),
        "failed_ratio": {"value": failed / len(attempts), "unit": "ratio"},
    })
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
