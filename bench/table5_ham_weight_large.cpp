/**
 * @file
 * Table 5: Hamiltonian-dependent total Pauli weight at larger scale
 * — Bravyi-Kitaev vs SAT+Anl. (Full SAT is out of reach here, as in
 * the paper). The Hamiltonian-independent solve drops the algebraic
 * independence clauses (Sec. 4.1) and the optional vacuum pairing,
 * then Algorithm 2 assigns the pairs.
 *
 * Defaults cover the smaller rows of the paper's table; pass
 * --large for the full list.
 */

#include <cstdio>
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
    Rng rng(1234);
    cases.push_back({"Electronic-8",
                     fermion::syntheticElectronicStructure(8, rng)});
    cases.push_back({"Hubbard-10",
                     fermion::fermiHubbard1D(5, 1.0, 4.0)});
    cases.push_back({"Hubbard-12",
                     fermion::fermiHubbard1D(6, 1.0, 4.0)});
    cases.push_back({"SYK-8", fermion::sykModel(8, rng)});
    if (large) {
        cases.push_back(
            {"Electronic-10",
             fermion::syntheticElectronicStructure(10, rng)});
        cases.push_back(
            {"Electronic-12",
             fermion::syntheticElectronicStructure(12, rng)});
        cases.push_back({"Hubbard-14",
                         fermion::fermiHubbard1D(7, 1.0, 4.0)});
        cases.push_back({"Hubbard-16",
                         fermion::fermiHubbard1D(8, 1.0, 4.0)});
        cases.push_back({"Hubbard-18",
                         fermion::fermiHubbard1D(9, 1.0, 4.0)});
        cases.push_back({"SYK-9", fermion::sykModel(9, rng)});
        cases.push_back({"SYK-10", fermion::sykModel(10, rng)});
        cases.push_back({"SYK-11", fermion::sykModel(11, rng)});
    }
    return cases;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Table 5: Hamiltonian-dependent Pauli weight, "
                  "larger scale (SAT+Anl. only).");
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

    bench::banner("Hamiltonian-dependent Pauli weight, larger scale",
                  "Table 5");
    Table table({"Case", "Modes", "BK", "SAT+Anl.", "Reduction"});

    // The "sat+annealing" strategy is this table's whole pipeline:
    // Hamiltonian-independent descent (no algebraic independence,
    // no vacuum pairing), then Algorithm 2 over both the SAT and
    // the BK seed, keeping the cheaper pairing.
    api::Compiler compiler;
    for (const auto &test_case : buildCases(*large)) {
        const auto &h = test_case.hamiltonian;
        api::CompilationRequest request = bench::compilationRequest(
            bench::Config::NoAlg, *timeout / 2.0, *timeout,
            /*vacuum=*/false);
        request.strategy = "sat+annealing";
        request.hamiltonian = h;
        request.deadlineSeconds = *deadline;
        const auto result = compiler.compile(request);

        table.addRow(
            {test_case.name, Table::num(std::int64_t(h.modes())),
             Table::num(std::int64_t(result.baselineCost)),
             Table::num(std::int64_t(result.cost)),
             Table::percent(1.0 - double(result.cost) /
                                      double(result.baselineCost),
                            2)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Paper: SAT+Anl. averages 23.71%% reduction over "
                "BK at 8..18 modes (Table 5).\n");
    tflags.report();
    return 0;
}
