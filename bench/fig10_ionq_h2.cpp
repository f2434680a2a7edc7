/**
 * @file
 * Figure 10: the real-system study. The paper ran the H2 ground
 * state evolution on the IonQ Aria-1 ion-trap machine; hardware
 * being unavailable here, the same compiled circuits run on the
 * noisy simulator configured with the device fidelities the paper
 * quotes (99.99% 1q, 98.91% 2q, 98.82% readout). Reported: the
 * measured-energy distribution per encoding.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/pauli_compiler.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "hw/router.h"
#include "hw/topology_flags.h"
#include "sim/exact.h"
#include "sim/noise.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 10: H2 on a simulated IonQ Aria-1.");
    const auto *shots =
        flags.addInt("shots", 1000, "measurement shots");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "SAT budget (s)");
    const auto *threads_flag =
        flags.addInt("threads", 0, "shot-runner threads (0 = "
                                   "hardware concurrency)");
    const auto topo_flags = hw::TopologyFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();
    // With --topology/--topology-file the compile becomes
    // connectivity-aware and the table gains routed columns; the
    // noisy simulation itself stays on the logical circuit (the
    // paper's device was all-to-all ion-trap).
    const auto topology = topo_flags.resolve();
    ThreadPool pool(
        ThreadPool::resolveThreadCount(*threads_flag));

    bench::banner("H2 on simulated IonQ Aria-1", "Figure 10");
    const auto h2 = fermion::h2Sto3gIntegrals().toHamiltonian();

    api::CompilationRequest request = bench::compilationRequest(
        bench::Config::FullSat, *timeout / 2.0, *timeout);
    request.hamiltonian = h2;

    const auto noise = sim::NoiseModel::ionqAria1();
    std::vector<std::string> headers = {"Encoding", "E measured",
                                        "sigma", "E0 exact",
                                        "CNOTs", "shots/s"};
    if (topology) {
        headers.push_back("Routed 2q");
        headers.push_back("SWAPs");
    }
    Table table(headers);
    Rng rng(1010);
    std::size_t total_shots = 0;
    double total_seconds = 0.0;
    api::Compiler compiler;
    for (const auto &[name, strategy] :
         std::vector<std::pair<std::string, std::string>>{
             {"JW", "jordan-wigner"},
             {"BK", "bravyi-kitaev"},
             {"Full SAT", "sat"}}) {
        request.strategy = strategy;
        const auto compiled = compiler.compile(request);
        const auto &qubit_h = compiled.qubitHamiltonian;
        const auto eigen = sim::eigendecompose(qubit_h);
        const auto initial = eigen.state(0);
        const auto circuit = circuit::compileTrotter(qubit_h, 1.0);
        const auto stats = sim::measureEnergy(
            circuit, initial, qubit_h, noise,
            static_cast<std::size_t>(*shots), rng, pool);
        total_shots += stats.shots;
        total_seconds += stats.elapsedSeconds;
        std::vector<std::string> row = {
            name, Table::num(stats.mean, 3),
            Table::num(stats.standardDeviation, 3),
            Table::num(eigen.values[0], 3),
            Table::num(std::int64_t(circuit.costs().cnotGates)),
            Table::num(stats.shots / stats.elapsedSeconds, 0)};
        if (topology) {
            const auto routed =
                hw::routeCircuit(circuit, *topology);
            row.push_back(Table::num(
                std::int64_t(routed.stats.twoQubitGates)));
            row.push_back(
                Table::num(std::int64_t(routed.stats.swaps)));
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    std::printf("throughput: %.0f shots/s over %zu shots "
                "(%zu threads)\n",
                total_shots / total_seconds, total_shots,
                pool.threadCount());
    std::printf("Paper measured E = -1.49 (JW), -1.54 (BK), -1.56 "
                "(Full SAT) on the real device; the ordering and "
                "sigma ranking are the reproduced shape.\n");
    tflags.report();
    return 0;
}
