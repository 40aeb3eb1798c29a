"""Build a degradation schedule for the blur operator and compare it against
uniformly spaced severities.

The min-max schedule (a dynamic program over the distance table) puts knots
where the operator changes fastest; for blur that is the low-width end of the
range. Its trace lists the optimum for each number of interior knots.
"""

from dirac.core import RandomSource, prior_sample, squared_exponential_prior
from dirac.degrade import GaussianBlurProcess
from dirac.schedule import (
    build_distance_table,
    greedy_schedule,
    max_edge_distance,
    uniform_indices,
)


def main():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    proc = GaussianBlurProcess(shape)
    dataset = [prior_sample(prior, RandomSource(i)) for i in range(8)]
    table = build_distance_table(proc, dataset, n_candidates=41)

    m = 6
    minmax = greedy_schedule(table, m)

    print(f"{m} interior knots on {table.size} candidates")
    print("min-max knots (t, w):")
    for t, w in minmax.knots:
        print(f"  t={t:.3f}  w={w:.3f}")
    g = minmax.max_edge_trace[-1]
    u = max_edge_distance(table, uniform_indices(table.size, m))
    print(f"max edge distance: min-max {g:.4f} vs uniform {u:.4f}")
    print("optimum by interior knots:", " ".join(f"{d:.4f}" for d in minmax.max_edge_trace))


if __name__ == "__main__":
    main()
