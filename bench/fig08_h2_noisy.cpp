/**
 * @file
 * Figure 8: noisy simulation of H2 time evolution from the energy
 * eigenstates E0..E3 under Jordan-Wigner, Bravyi-Kitaev and the
 * Full SAT encoding. For each two-qubit error rate the harness
 * reports the measured energy and its standard deviation; the
 * better encoding drifts less from the eigenvalue and has the
 * smaller sigma.
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
#include "sim/exact.h"
#include "sim/noise.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 8: noisy H2 evolution from E0..E3.");
    const auto *shots =
        flags.addInt("shots", 300, "trajectories per setting "
                                   "(paper: 3000)");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "SAT budget (s)");
    const auto *max_state =
        flags.addInt("max-state", 3, "highest eigenstate index");
    const auto *threads_flag =
        flags.addInt("threads", 0, "shot-runner threads (0 = "
                                   "hardware concurrency)");
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    bench::addProgressFlag(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();
    ThreadPool pool(
        ThreadPool::resolveThreadCount(*threads_flag));

    bench::banner("noisy H2 simulation", "Figure 8");
    const auto h2 = fermion::h2Sto3gIntegrals().toHamiltonian();

    // Every encoding flows through the one facade; the SAT entry
    // runs the paper's full pipeline behind the "sat" strategy.
    api::CompilationRequest request = bench::compilationRequest(
        bench::Config::FullSat, *timeout / 2.0, *timeout);
    request.hamiltonian = h2;

    struct Entry
    {
        std::string name;
        api::CompilationResult compiled;
        sim::EigenSystem eigen;
        circuit::Circuit circuit;
    };
    api::Compiler compiler;
    std::vector<Entry> entries;
    for (const auto &[name, strategy] :
         std::vector<std::pair<std::string, std::string>>{
             {"JW", "jordan-wigner"},
             {"BK", "bravyi-kitaev"},
             {"Full SAT", "sat"}}) {
        Entry entry;
        entry.name = name;
        request.strategy = strategy;
        entry.compiled = compiler.compile(request);
        entry.eigen =
            sim::eigendecompose(entry.compiled.qubitHamiltonian);
        entry.circuit = circuit::compileTrotter(
            entry.compiled.qubitHamiltonian, 1.0);
        entries.push_back(std::move(entry));
    }

    Table table({"State", "2q error", "Encoding", "E measured",
                 "sigma", "E exact", "shots/s"});
    Rng rng(808);
    const double errors[] = {1e-4, 1e-3, 1e-2};
    std::size_t total_shots = 0;
    double total_seconds = 0.0;
    for (std::int64_t level = 0; level <= *max_state; ++level) {
        for (const double error : errors) {
            for (const auto &entry : entries) {
                sim::NoiseModel noise;
                noise.singleQubitError = 1e-4;
                noise.twoQubitError = error;
                const auto initial = entry.eigen.state(
                    static_cast<std::size_t>(level));
                const auto stats = sim::measureEnergy(
                    entry.circuit, initial,
                    entry.compiled.qubitHamiltonian, noise,
                    static_cast<std::size_t>(*shots), rng,
                    pool);
                total_shots += stats.shots;
                total_seconds += stats.elapsedSeconds;
                // Avoid operator+(const char*, string&&): GCC 12's
                // -Wrestrict false positive (PR 105651) fires on it
                // at -O2 and above.
                std::string state_label = "E";
                state_label += std::to_string(level);
                table.addRow(
                    {std::move(state_label),
                     Table::num(error, 4), entry.name,
                     Table::num(stats.mean, 4),
                     Table::num(stats.standardDeviation, 4),
                     Table::num(entry.eigen.values[level], 4),
                     Table::num(stats.shots /
                                    stats.elapsedSeconds,
                                0)});
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("throughput: %.0f shots/s over %zu shots "
                "(%zu threads)\n",
                total_shots / total_seconds, total_shots,
                pool.threadCount());
    std::printf("Full SAT should show the least drift from the "
                "exact eigenvalue and the smallest sigma.\n");
    tflags.report();
    return 0;
}
