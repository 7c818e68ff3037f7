"""cqedlat benchmark: time to a checked solution on four fixed CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload blockade_scan --seed 3 --seconds 15 --trace 0

Each workload is one study, a fixed list of subcommand invocations made
through the public entry points ``cli.load_config`` + ``cli.run_command`` by
one client in one process, back to back (closed loop).  The process is fresh
for every run.  It first times ``SETUP_REPEATS`` fresh interpreters that
import ``cqedlat.cli`` and resolve the workload's configs (``setup_s``, the
median), then runs the study once untimed (its peak RSS is ``peak_rss_mb``),
then repeats it for ``--seconds`` and at least ``MIN_REPS`` times; ``wall_s``
is the median study time.  Every output is checked outside the timed region.

``--trace 1`` alternates untraced and traced studies instead and reports the
per-layer metrics: span counts and self times recorded by ``spans.py`` from
outside the program, counts taken from return values and the integrator, and
the tracing overhead.  The last line of standard output is the result object;
the line before it records the run conditions.

Exit status is 0 when a result was printed (``correct`` tells whether every
check held) and 2 when the benchmark cannot run, e.g. outside a checkout.
"""

import sys

sys.dont_write_bytecode = True

import os  # noqa: E402

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:          # must precede the first numpy import
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("CQEDLAT_WORKERS", None)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MIN_REPS = 3            # timed studies per run, whatever --seconds says
DEADLINE_S = 120.0      # no new study starts after this much time in the loop

# traced functions: (module or class inside cqedlat, attribute, span label)
FUNCTIONS = [
    ("lattice", "build_jchm", "lattice.build_jchm"),
    ("lattice", "sector_ground_energy", "lattice.sector_ground_energy"),
    ("jc", "jc_hamiltonian", "jc.jc_hamiltonian"),
    ("hilbert", "photon_op_on", "hilbert.photon_op_on"),
    ("hilbert", "expectation", "hilbert.expectation"),
    ("lindblad", "build_liouvillian", "lindblad.build_liouvillian"),
    ("lindblad", "steady_state", "lindblad.steady_state"),
    ("lindblad", "g2_zero", "lindblad.g2_zero"),
    ("lindblad", "transmission_scan", "lindblad.transmission_scan"),
    ("meanfield", "phase_diagram", "meanfield.phase_diagram"),
    ("meanfield", "minimize_order_parameter", "meanfield.minimize_order_parameter"),
    ("meanfield", "driven_mf_steady", "meanfield.driven_mf_steady"),
    ("circuits", "parse_netlist", "circuits.parse_netlist"),
    ("circuits", "quantize", "circuits.quantize"),
    ("circuits.QuantizedCircuit", "eigenvalues", "circuits.eigenvalues"),
    ("resonator", "solve_modes", "resonator.solve_modes"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "build_summary", "cli.build_summary"),
]
# spanned for totals only
EXTRA_SPANS = [
    ("hilbert", "cutoff_convergence", "hilbert.cutoff_convergence"),
    ("cli", "run_command", "cli.run_command"),
]
LAYER_COUNTS = ["lindblad.dim_max", "lindblad.nnz_max", "circuits.basis_dim_max",
                "meanfield.rk45_steps"]
COUNTS = LAYER_COUNTS + ["checks_failed"]
RATIOS = ["lindblad.assemblies_per_solve", "trace_overhead_frac",
          "untraced_remainder_frac", "error_rate"]
TOTALS = ["hilbert.cutoff_convergence.total_s", "cli.io_s", "cli.command.self_s",
          "traced_wall_s"]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    out: list[tuple[str, str]] = []
    for _, _, label in FUNCTIONS:
        out += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
    out += [(name, "s") for name in TOTALS]
    out += [(name, "count") for name in COUNTS]
    out += [(name, "ratio") for name in RATIOS]
    return out


@dataclass
class Study:
    wall_s: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def exit_code(cli, exc: BaseException) -> int:
    """The exit status the ``cqedlat`` command would give for an exception (see ``cli.main``)."""
    if isinstance(exc, (cli.ConvergenceError, cli.StiffnessError, cli.MeanFieldConvergenceError)):
        return 2
    return 1


def run_study(cli, workload: str, invocations, config_paths: dict, outdir: str,
              reference: set, recorder=None) -> Study:
    """One study: every invocation back to back, timed; then every output checked.

    The outputs of the invocations named in ``reference`` are also compared with
    the stored reference tables.
    """
    outcomes = {}
    for inv in invocations:          # outputs of an earlier study must not pass for new ones
        for suffix in (".csv", "_summary.json"):
            if os.path.exists(os.path.join(outdir, inv.name + suffix)):
                os.remove(os.path.join(outdir, inv.name + suffix))
    t0 = time.perf_counter()
    for inv in invocations:
        csv_path = os.path.join(outdir, inv.name + ".csv")
        summary_path = os.path.join(outdir, inv.name + "_summary.json")
        try:
            config = cli.load_config(inv.command, config_paths[inv.name], {})
            cli.run_command(inv.command, config, csv_path, summary_path)
            outcomes[inv.name] = None
        except Exception as exc:  # every failure is counted, none stops the study
            outcomes[inv.name] = f"exit {exit_code(cli, exc)}: {type(exc).__name__}: {exc}"
    study = Study(wall_s=time.perf_counter() - t0)
    if recorder is not None:
        recorder.uninstall()
        study.spans, study.counts = recorder.stats, recorder.counts

    for inv in invocations:
        study.attempted += 1
        errors = [f"{workload}/{inv.name}: {outcomes[inv.name]}"] if outcomes[inv.name] else []
        if not errors:
            csv_path = os.path.join(outdir, inv.name + ".csv")
            try:
                with open(os.path.join(outdir, inv.name + "_summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                errors = workloads.check(workload, inv, csv_path, summary, inv.name in reference)
            except Exception as exc:  # a check that cannot run is a failed check
                errors = [f"{workload}/{inv.name}: check raised {type(exc).__name__}: {exc}"]
        study.errors += errors
        study.failed += bool(errors)
    return study


def install_layer_spans(rec, cli) -> None:
    """Wrap every traced function, the command table and the driven mean-field integrator."""
    from cqedlat import meanfield

    def observe_liouvillian(liouv, r):
        r.count_max("lindblad.dim_max", liouv.dim)
        r.count_max("lindblad.nnz_max", liouv.matrix.nnz)

    def observe_quantized(qc, r):
        r.count_max("circuits.basis_dim_max", qc.dim)

    observers = {"lindblad.build_liouvillian": observe_liouvillian,
                 "circuits.quantize": observe_quantized}
    targets = [spans.Target(owner, attr, label, observers.get(label))
               for owner, attr, label in FUNCTIONS + EXTRA_SPANS]
    extra = [(cli.COMMANDS, name, rec.wrap("cli.command", fn)) for name, fn in cli.COMMANDS.items()]
    extra.append((meanfield, "RK45",
                  spans.counting_integrator(meanfield.RK45, rec, "meanfield.rk45_steps")))
    rec.install("cqedlat", targets, extra)


def measure_setup(config_pairs: list[tuple[str, str]]) -> list[float]:
    """Wall time of fresh interpreters importing ``cqedlat.cli`` and resolving configs."""
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\nfrom cqedlat import cli\n"
            "for c, p in zip(sys.argv[2::2], sys.argv[3::2]):\n    cli.load_config(c, p, {})\n")
    argv = [sys.executable, "-c", code, SRC] + [x for pair in config_pairs for x in pair]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls every 50 ms, which would quantize the time
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def layer_metrics(traced: list[Study], untraced: list[Study], first: Study) -> dict[str, float]:
    med = statistics.median
    walls = [s.wall_s for s in traced]
    m: dict[str, float] = {}

    def span(s: Study, label: str, key: str) -> float:
        st = s.spans.get(label)
        return getattr(st, key) if st is not None else 0

    for _, _, label in FUNCTIONS:
        m[f"{label}.calls"] = med(span(s, label, "calls") for s in traced)
        m[f"{label}.self_s"] = med(span(s, label, "self_s") for s in traced)
    m["hilbert.cutoff_convergence.total_s"] = med(
        span(s, "hilbert.cutoff_convergence", "total_s") for s in traced)
    m["cli.io_s"] = med(span(s, "cli.run_command", "total_s") - span(s, "cli.command", "total_s")
                        for s in traced)
    m["cli.command.self_s"] = med(span(s, "cli.command", "self_s") for s in traced)
    m["traced_wall_s"] = med(walls)
    for key in LAYER_COUNTS:
        m[key] = med(s.counts.get(key, 0) for s in traced)
    everything = [first] + untraced + traced       # the same studies as attempted/failed
    m["checks_failed"] = sum(len(s.errors) for s in everything)
    solves = m["lindblad.steady_state.calls"]
    m["lindblad.assemblies_per_solve"] = m["lindblad.build_liouvillian.calls"] / solves if solves else 0.0
    m["trace_overhead_frac"] = med(walls) / med(s.wall_s for s in untraced) - 1.0
    m["untraced_remainder_frac"] = med(
        1.0 - sum(st.self_s for st in s.spans.values()) / s.wall_s for s in traced)
    m["error_rate"] = error_rate(everything)
    return m


def error_rate(studies: list[Study]) -> float:
    """Failed share of attempted invocations."""
    return sum(s.failed for s in studies) / sum(s.attempted for s in studies)


def record(args, cli_version: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "cqedlat_workers_env": os.environ.get("CQEDLAT_WORKERS"),
        "dont_write_bytecode": sys.dont_write_bytecode,
        "versions": {"cqedlat": cli_version, "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "nproc": os.cpu_count(), "machine": platform.machine(), "system": platform.system(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cqedlat", "cli.py")):
        print(f"perfbench: no cqedlat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return measure(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def write_configs(invocations, outdir: str) -> dict[str, str]:
    paths = {}
    for inv in invocations:
        paths[inv.name] = os.path.join(outdir, inv.name + "_config.json")
        with open(paths[inv.name], "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=2, sort_keys=True)
    return paths


def measure(args, outdir: str) -> int:
    invocations = workloads.WORKLOADS[args.workload](args.seed)
    config_paths = write_configs(invocations, outdir)
    reference = workloads.reference_names(args.workload, invocations)

    setup_times = [] if args.trace else measure_setup(
        [(inv.command, config_paths[inv.name]) for inv in invocations])

    sys.path.insert(0, SRC)
    from cqedlat import __version__, cli

    def study(traced: bool = False) -> Study:
        recorder = None
        if traced:
            recorder = spans.SpanRecorder()
            install_layer_spans(recorder, cli)
        return run_study(cli, args.workload, invocations, config_paths, outdir,
                         reference, recorder)

    first = study()                           # untimed; a fresh process runs the workload once
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced: list[Study] = []
    traced: list[Study] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if (len(untraced) >= MIN_REPS and elapsed >= args.seconds) or elapsed >= DEADLINE_S:
            break
        untraced.append(study())
        if args.trace:
            traced.append(study(traced=True))

    everything = [first] + untraced + traced
    for err in sorted({e for s in everything for e in s.errors}):
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    attempted = sum(s.attempted for s in everything)
    failed = sum(s.failed for s in everything)

    if args.trace:
        values = layer_metrics(traced, untraced, first)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s.wall_s for s in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    rec = record(args, __version__)
    rec["samples"] = {"wall_s": [s.wall_s for s in untraced], "setup_s": setup_times,
                      "traced_wall_s": [s.wall_s for s in traced],
                      "first_study_wall_s": first.wall_s}
    print(json.dumps({"record": rec}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
