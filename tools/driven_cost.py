"""Per-seed transient cost and time split of the seed-0 driven mean field, in process.

The point is the one of the benchmark's ``driven_mf`` workload at seed 0:
ω_r = 20, ω_q = 19, g = 1, zJ = 1, ξ = 0.12 at ω_d = 18.3, γ₁ = κ = 0.06 (a
port on site 0), n_max = 6, seeds 0 and 1.5, in one ``driven_mf_steady``
call.  For each seed it prints the control intervals integrated before
capture, the DOP853 steps, the right-hand-side calls and the LU
factorizations of its Newton runs, counted in a separate, untimed call.  It
then prints the median over ``REPEATS`` calls of the wall time and of its
split: the transient (the package's DOP853 stepper ``meanfield.RK45`` on the
real Hermitian coordinates, its construction and every ``step``), the
Newton runs (real bordered assembly, LU and solves, the line search
included), the stability margins (one real ``eigvals`` each), the
``steady_state`` checks, and the rest.

Usage: python tools/driven_cost.py

Run it from a source checkout (``src/`` is put on the path) or with the
package installed.  Uses the standard library and ``cqedlat`` only; pin BLAS
to one thread (``OPENBLAS_NUM_THREADS=1``) for numbers comparable across runs.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cqedlat import meanfield  # noqa: E402
from cqedlat.hilbert import SiteSpace  # noqa: E402
from cqedlat.jc import JCParams  # noqa: E402
from cqedlat.lindblad import DissipationRates  # noqa: E402

REPEATS = 5
SEEDS = (0.0, 1.5)
PARTS = ("transient", "newton", "margins", "steady_state")


def run() -> meanfield.DrivenMFResult:
    """The seed-0 ``driven-mf`` point, once."""
    return meanfield.driven_mf_steady(
        JCParams(20.0, 19.0, 1.0), DissipationRates(gamma1=0.06, kappa=0.06),
        0.12, 18.3, 1.0, seeds=SEEDS, space=SiteSpace(6))


@contextmanager
def wrapped(owner, name: str, make):
    """``owner.name`` replaced by ``make(original)`` inside the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def per_seed_counts() -> list[dict[str, int]]:
    """Control intervals, DOP853 steps, RHS calls and LU factorizations of each
    seed of one call.  The result records all but the steps; those are counted
    per control interval through ``meanfield.RK45`` and summed over each seed's
    ``control_intervals``."""
    interval_steps: list[int] = []      # DOP853 steps of every control interval, in order

    def counting_solver(original):
        class Counting(original):
            def __init__(self, *args, **kwargs):
                interval_steps.append(0)
                super().__init__(*args, **kwargs)

            def step(self):
                interval_steps[-1] += 1
                return super().step()
        return Counting

    with wrapped(meanfield, "RK45", counting_solver):
        result = run()
    counts, start = [], 0
    for intervals, calls, lu in zip(result.control_intervals, result.rhs_calls,
                                    result.lu_factorizations):
        steps = sum(interval_steps[start:start + intervals])
        counts.append({"intervals": intervals, "steps": steps, "rhs_calls": calls, "lu": lu})
        start += intervals
    return counts


def time_split() -> dict[str, float]:
    """Wall time of one call and the time inside each of ``PARTS``; ``newton``
    excludes the margins and ``steady_state`` checks that run inside it."""
    spent = dict.fromkeys(("newton_total",) + PARTS, 0.0)

    def timer(key):
        def make(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    spent[key] += time.perf_counter() - start
            return timed
        return make

    def timed_stepper(original):
        timed = timer("transient")

        class Timed(original):
            __init__ = timed(original.__init__)
            step = timed(original.step)
        return Timed

    with (wrapped(meanfield, "RK45", timed_stepper),
          wrapped(meanfield._DrivenSite, "newton", timer("newton_total")),
          wrapped(meanfield._DrivenSite, "margin", timer("margins")),
          wrapped(meanfield._DrivenSite, "steady", timer("steady_state"))):
        start = time.perf_counter()
        run()
        spent["wall"] = time.perf_counter() - start
    spent["newton"] = spent.pop("newton_total") - spent["margins"] - spent["steady_state"]
    spent["rest"] = spent["wall"] - sum(spent[p] for p in PARTS)
    return spent


def main() -> int:
    counts = per_seed_counts()          # also the warm-up call
    for seed, c in zip(SEEDS, counts):
        print(f"driven mean field, seed-0 point, seed {seed}: {c['intervals']} control intervals, "
              f"{c['steps']} DOP853 steps, {c['rhs_calls']} RHS calls, "
              f"{c['lu']} LU factorizations")
    splits = [time_split() for _ in range(REPEATS)]
    med = {key: statistics.median(s[key] for s in splits) for key in splits[0]}
    parts = ", ".join(f"{key} {med[key] * 1e3:.0f} ms" for key in PARTS + ("rest",))
    print(f"median over {REPEATS} calls: {med['wall'] * 1e3:.0f} ms; {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
