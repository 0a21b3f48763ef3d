"""Discovery-quality table for the benchmark README.

    python3 bench/quality.py

For each cohort size, samples `reference_network(7)` (sample seed 11) and
prints the structural Hamming distance to `dag_to_cpdag(v5)` of the PC
CPDAG, the NOTEARS DAG (as its CPDAG) and the elicited V5, with the
canonical BDeu (ESS 10) of NOTEARS and V5 and the run time of each method.
"""

import logging
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from causalkit import nsclc  # noqa: E402
from causalkit.notears import notears_fit  # noqa: E402
from causalkit.pc import dag_to_cpdag, pc_run, structural_hamming_distance  # noqa: E402
from causalkit.scoring import bdeu_total  # noqa: E402
from causalkit.synth import reference_network, sample_from_network  # noqa: E402

SIZES = (326, 2000, 10_000)


def main() -> None:
    logging.disable(logging.WARNING)
    truth = dag_to_cpdag(nsclc.v5_dag())
    net = reference_network(7)
    print("| n | PC SHD | PC s | NOTEARS SHD | NOTEARS edges | NOTEARS s "
          "| V5 SHD | BDeu NOTEARS | BDeu V5 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for n in SIZES:
        data = sample_from_network(net, n, 11)
        start = perf_counter()
        pc = pc_run(data)
        pc_s = perf_counter() - start
        start = perf_counter()
        nt = notears_fit(data).dag
        nt_s = perf_counter() - start
        v5 = nsclc.v5_dag()
        print(
            f"| {n} | {structural_hamming_distance(pc, truth)} | {pc_s:.1f} "
            f"| {structural_hamming_distance(dag_to_cpdag(nt), truth)} | {len(nt.edges)} "
            f"| {nt_s:.1f} | {structural_hamming_distance(dag_to_cpdag(v5), truth)} "
            f"| {bdeu_total(nt, data, 10.0).total:.1f} | {bdeu_total(v5, data, 10.0).total:.1f} |",
            flush=True,
        )


if __name__ == "__main__":
    main()
