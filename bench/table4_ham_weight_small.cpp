/**
 * @file
 * Table 4: Hamiltonian-dependent total Pauli weight at small scale
 * — Bravyi-Kitaev vs SAT+Anl. vs Full SAT on the three benchmark
 * Hamiltonians (electronic structure, Fermi-Hubbard, four-body
 * SYK).
 *
 * Defaults run the smaller instances in a few minutes; pass
 * --large for the paper's full case list and raise --timeout to
 * push each Full SAT run closer to its optimum.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"

using namespace fermihedral;

namespace {

struct Case
{
    std::string name;
    fermion::FermionHamiltonian hamiltonian;
};

std::vector<Case>
buildCases(bool large)
{
    std::vector<Case> cases;
    Rng rng(2024);
    cases.push_back({"Electronic-4",
                     fermion::syntheticElectronicStructure(4, rng)});
    cases.push_back({"Hubbard-4",
                     fermion::fermiHubbard1D(2, 1.0, 4.0)});
    cases.push_back({"Hubbard-6",
                     fermion::fermiHubbard1D(3, 1.0, 4.0)});
    cases.push_back({"SYK-3", fermion::sykModel(3, rng)});
    cases.push_back({"SYK-4", fermion::sykModel(4, rng)});
    if (large) {
        cases.push_back(
            {"Electronic-6",
             fermion::syntheticElectronicStructure(6, rng)});
        cases.push_back({"Hubbard-8",
                         fermion::fermiHubbard2x2(1.0, 4.0)});
        cases.push_back({"SYK-5", fermion::sykModel(5, rng)});
        cases.push_back({"SYK-6", fermion::sykModel(6, rng)});
    }
    return cases;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Table 4: Hamiltonian-dependent Pauli weight, "
                  "small scale.");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "SAT budget per case (s)");
    const auto *large =
        flags.addBool("large", false, "run the full paper range");
    bench::EngineFlags::add(flags);
    const auto *deadline = bench::addDeadlineFlag(flags);
    hw::TopologyFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("Hamiltonian-dependent Pauli weight, small scale",
                  "Table 4");
    Table table({"Case", "Modes", "BK", "SAT+Anl.", "Red.",
                 "Full SAT", "Red.", "Optimal?"});

    // One facade request per case: the "sat" strategy runs the
    // whole pipeline (independent solve, Algorithm 2 pairing,
    // seeded dependent solve) and reports the intermediate
    // SAT+Anl. cost in its provenance.
    api::Compiler compiler;
    for (const auto &test_case : buildCases(*large)) {
        const auto &h = test_case.hamiltonian;
        api::CompilationRequest request = bench::compilationRequest(
            bench::Config::FullSat, *timeout / 2.0, *timeout);
        request.hamiltonian = h;
        request.deadlineSeconds = *deadline;
        const auto result = compiler.compile(request);

        const std::size_t bk_weight = result.baselineCost;
        auto reduction = [bk_weight](std::size_t w) {
            return Table::percent(
                1.0 - double(w) / double(bk_weight), 2);
        };
        table.addRow({test_case.name,
                      Table::num(std::int64_t(h.modes())),
                      Table::num(std::int64_t(bk_weight)),
                      Table::num(std::int64_t(result.annealedCost)),
                      reduction(result.annealedCost),
                      Table::num(std::int64_t(result.cost)),
                      reduction(result.cost),
                      result.provedOptimal ? "yes" : "budget"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Paper: Full SAT averages 37.26%% reduction, "
                "SAT+Anl. 21.63%% (Table 4).\n");
    tflags.report();
    return 0;
}
