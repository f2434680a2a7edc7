/**
 * @file
 * Figure 9: noisy simulation of the 3x1 and 2x2 Fermi-Hubbard
 * models (periodic boundaries) from the ground eigenstate E0, for
 * Jordan-Wigner, Bravyi-Kitaev and the SAT encoding.
 *
 * With one Trotter step and the default couplings (t = 1, U = 4)
 * the product formula itself shifts the energy, so the noise drift
 * is reported against the noiseless Trotterized energy of the same
 * circuit (the stationary reference for this experiment); E0 is
 * printed for context. Use --steps/--t/--u for a more faithful
 * evolution at the cost of deeper circuits.
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
    FlagSet flags("Figure 9: noisy Fermi-Hubbard evolution from "
                  "E0.");
    const auto *shots =
        flags.addInt("shots", 150, "trajectories per setting "
                                   "(paper: 1000)");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "SAT budget per model (s)");
    const auto *hop = flags.addDouble("t", 1.0, "hopping");
    const auto *repulsion = flags.addDouble("u", 4.0, "on-site U");
    const auto *steps =
        flags.addInt("steps", 1, "Trotter steps");
    const auto *skip_2x2 = flags.addBool(
        "skip-2x2", false, "skip the 8-qubit model (faster)");
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

    bench::banner("noisy Fermi-Hubbard simulation", "Figure 9");

    struct Model
    {
        std::string name;
        fermion::FermionHamiltonian hamiltonian;
        bench::Config config;
    };
    std::vector<Model> models;
    models.push_back({"3x1",
                      fermion::fermiHubbard1D(3, *hop, *repulsion),
                      bench::Config::FullSat});
    if (!*skip_2x2) {
        models.push_back({"2x2",
                          fermion::fermiHubbard2x2(*hop,
                                                   *repulsion),
                          bench::Config::NoAlg});
    }

    Table table({"Model", "2q error", "Encoding", "E measured",
                 "sigma", "E noiseless", "Drift", "E0 exact",
                 "shots/s"});
    Rng rng(909);
    std::size_t total_shots = 0;
    double total_seconds = 0.0;
    api::Compiler compiler;
    for (const auto &model : models) {
        const auto &h = model.hamiltonian;
        api::CompilationRequest request = bench::compilationRequest(
            model.config, *timeout / 2.0, *timeout);
        request.hamiltonian = h;
        const std::string sat_strategy = request.strategy;

        for (const auto &[name, strategy] :
             std::vector<std::pair<std::string, std::string>>{
                 {"JW", "jordan-wigner"},
                 {"BK", "bravyi-kitaev"},
                 {"Full SAT", sat_strategy}}) {
            request.strategy = strategy;
            const auto compiled = compiler.compile(request);
            const auto &qubit_h = compiled.qubitHamiltonian;
            const auto eigen = sim::eigendecompose(qubit_h);
            const auto initial = eigen.state(0);
            const auto circuit = circuit::compileTrotter(
                qubit_h, 1.0, static_cast<std::size_t>(*steps));

            sim::StateVector noiseless = initial;
            noiseless.applyCircuit(circuit);
            const double reference =
                noiseless.expectation(qubit_h);

            for (const double error : {1e-4, 1e-3, 1e-2}) {
                sim::NoiseModel noise;
                noise.singleQubitError = 1e-4;
                noise.twoQubitError = error;
                const auto stats = sim::measureEnergy(
                    circuit, initial, qubit_h, noise,
                    static_cast<std::size_t>(*shots), rng,
                    pool);
                total_shots += stats.shots;
                total_seconds += stats.elapsedSeconds;
                table.addRow(
                    {model.name, Table::num(error, 4), name,
                     Table::num(stats.mean, 4),
                     Table::num(stats.standardDeviation, 4),
                     Table::num(reference, 4),
                     Table::num(stats.mean - reference, 4),
                     Table::num(eigen.values[0], 4),
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
    std::printf("Full SAT should show the smallest |drift| growth "
                "with the error rate (paper Fig. 9).\n");
    tflags.report();
    return 0;
}
