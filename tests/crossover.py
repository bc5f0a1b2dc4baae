"""Time the loop and numpy paths of set_image and excess by part count.

    PYTHONPATH=src python tests/crossover.py [--max-parts 80] [--seed 0]

Each path is forced by setting its crossover constant (IMAGE_VECTOR_MIN_PARTS
in ``operators``, VECTOR_MIN_PARTS in ``intervals``) to 1 or to 10**9 for the
call.  set_image runs on the two built-ins and their Takahashi perturbations
(lam 0.75 for sqrt_example, 0.5 for square_example, as the packaged
scenarios use), on random unions of n parts in the domain; excess runs on
pairs of random unions of n parts between them, split as evenly as they go.
Each row is the median over the operators (or domains) of the per-call
microseconds of each path, each the fastest of a few rounds timed in
alternation with the other path's.  The last lines give the part count where
straight lines fitted to the two columns meet: the constant is the part count
from which the numpy path is taken.  Not collected by pytest; run by hand
when either path changes.
"""

from __future__ import annotations

import argparse
import statistics
import timeit

import numpy as np

import setfix
from setfix import intervals, operators

UNIONS = 6   # random unions (or pairs) per operator and part count
CALLS = 10   # calls on each per timing
REPEATS = 5  # timings per path, alternating with the other; the fastest counts


def random_union(rng: np.random.Generator, bounds: setfix.Interval, n: int):
    """n closed parts inside bounds with sorted, distinct random ends."""
    while True:
        ends = np.sort(rng.uniform(bounds.lo, bounds.hi, 2 * n))
        if np.all(np.diff(ends) > 1e-9):
            parts = ends.reshape(n, 2).tolist()
            return setfix.normalize(parts, bounds)


def per_call(fn, args: list) -> float:
    """Mean microseconds of one round of fn(*a) over args."""
    return 1e6 * timeit.timeit(lambda: [fn(*a) for a in args], number=CALLS) / (CALLS * len(args))


def both_paths(module, name: str, fn, args: list) -> tuple[float, float]:
    """(loop, numpy) microseconds per call of fn, each path forced through
    module.name and timed in alternation, the fastest of REPEATS rounds; the
    two results must agree bit for bit."""
    saved = getattr(module, name)
    paths = (10**9, 1)  # the loop, the numpy path
    times: tuple[list, list] = ([], [])
    try:
        outs = []
        for value in paths:
            setattr(module, name, value)
            outs.append([repr(fn(*a)) for a in args])
        if outs[0] != outs[1]:
            raise AssertionError(f"the two paths of {fn.__qualname__} disagree")
        for _ in range(REPEATS):
            for side, value in enumerate(paths):
                setattr(module, name, value)
                times[side].append(per_call(fn, args))
    finally:
        setattr(module, name, saved)
    return min(times[0]), min(times[1])


def crossover(rows: list[tuple[int, float, float]]) -> float:
    """The part count where least-squares lines through the loop's and the
    numpy path's times meet: both costs are affine in the part count."""
    n, loop, vector = (np.array(col) for col in zip(*rows))
    (a1, b1), (a2, b2) = np.polyfit(n, loop, 1), np.polyfit(n, vector, 1)
    return float((b2 - b1) / (a1 - a2))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-parts", type=int, default=80)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    ops = []
    for base, lam in ((setfix.sqrt_example(), 0.75), (setfix.square_example(), 0.5)):
        ops += [base, setfix.perturb(base, setfix.Takahashi(lam))]
    image_rows, excess_rows = [], []
    print(f"{'parts':>5}  {'image loop':>10}  {'image numpy':>11}  "
          f"{'excess loop':>11}  {'excess numpy':>12}   (us per call, median)")
    for n in range(1, args.max_parts + 1):
        image = [both_paths(operators, "IMAGE_VECTOR_MIN_PARTS", t.set_image,
                            [(random_union(rng, t.domain.bounds, n),) for _ in range(UNIONS)])
                 for t in ops]
        pairs = [both_paths(intervals, "VECTOR_MIN_PARTS", setfix.excess,
                            [(random_union(rng, b, n - n // 2), random_union(rng, b, n // 2))
                             for _ in range(UNIONS)])
                 for b in (ops[0].domain.bounds, ops[2].domain.bounds)] if n > 1 else []
        image_rows.append((n, *(statistics.median(col) for col in zip(*image))))
        line = f"{n:5d}  {image_rows[-1][1]:10.2f}  {image_rows[-1][2]:11.2f}"
        if pairs:
            excess_rows.append((n, *(statistics.median(col) for col in zip(*pairs))))
            line += f"  {excess_rows[-1][1]:11.2f}  {excess_rows[-1][2]:12.2f}"
        print(line, flush=True)
    print(f"IMAGE_VECTOR_MIN_PARTS: the paths meet at {crossover(image_rows):.1f} parts "
          f"(now {operators.IMAGE_VECTOR_MIN_PARTS})")
    print(f"VECTOR_MIN_PARTS: the paths meet at {crossover(excess_rows):.1f} parts "
          f"(now {intervals.VECTOR_MIN_PARTS})")


if __name__ == "__main__":
    main()
