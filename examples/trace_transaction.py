"""Trace one replicated write through MINOS-B and MINOS-O.

Attaches the observability recorder to a 3-node cluster and prints the
per-node swim-lane timeline of a single write transaction under
<Lin, Synch> — the executable version of the paper's Figure 7(a)
timeline.

Run:  python examples/trace_transaction.py
"""

from repro.api import (LIN_SYNCH, MINOS_B, MINOS_O, MachineParams,
                       MinosCluster)


def main() -> None:
    for config in (MINOS_B, MINOS_O):
        cluster = MinosCluster(model=LIN_SYNCH, config=config,
                               params=MachineParams(nodes=3))
        obs = cluster.attach_obs()
        cluster.load_records([("key", "v0")])
        result = cluster.write(0, "key", "v1")
        cluster.sim.run()
        print(f"=== {config.name}: one write, "
              f"{result.latency * 1e6:.2f} us ===")
        print(obs.timeline())
        print()


if __name__ == "__main__":
    main()
