"""Compare four assignment models on the same congested scenario.

- traditional_ue:        no residual queues; flow may overshoot capacity.
- fixed_capacity_queue:  queues form, but capacity stays at C_max.
- queue_dependent:       queues erode capacity (C(Q) = C_max - gamma*Q).
- system_optimum:        route choice follows marginal instead of average
                         cost, as a central planner would assign it.

Run:  python demos/02_model_comparison.py
"""

from queuenet import fixtures
from queuenet.analysis import compare_models


def main() -> None:
    path_set = fixtures.six_node_path_set()
    i4 = path_set.link_index("4")

    rows = compare_models(path_set)
    print("Bottleneck (link 4) under each model")
    print("------------------------------------")
    print(f"{'variant':<22} {'flow':>8} {'queue':>8} {'cost':>7} {'total cost':>11}")
    for row in rows:
        st = row.state
        print(
            f"{row.variant:<22} {st.throughflows[i4]:8.1f} "
            f"{st.link_queues[i4]:8.1f} {st.link_times[i4]:7.3f} "
            f"{row.total_generalized_cost:11.0f}"
        )
    print()
    print("Reading the table:")
    print(" * traditional_ue ignores queueing, so the bottleneck carries more")
    print("   than its 2400 veh/hr physical capacity -- an artifact.")
    print(" * fixed_capacity_queue caps the flow at 2400 and stores the excess")
    print("   in a queue.")
    print(" * queue_dependent lets the queue eat into capacity: the link ends")
    print("   up discharging ~2350 veh/hr, with a longer queue and delay.")
    print(" * system_optimum charges each route its marginal cost, which")
    print("   pushes flow off the bottleneck (to ~2200 veh/hr) and parks the")
    print("   unserved excess in a much longer residual queue.")
    print(" * total cost sums (flow + queue) x generalized time over the links,")
    print("   the total_generalized_cost of the CLI's summary.txt.")


if __name__ == "__main__":
    main()
