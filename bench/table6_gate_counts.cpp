/**
 * @file
 * Table 6: gate counts of the compiled time-evolution circuits
 * (t = 1) for H2, the 3x1 and the 2x2 Fermi-Hubbard models —
 * Bravyi-Kitaev vs the SAT encoding, with Jordan-Wigner as an
 * extra reference column.
 *
 * Circuits are compiled with this repo's Trotter compiler and
 * peephole passes (standing in for Paulihedral + Qiskit level 3);
 * absolute numbers differ from the paper, the BK -> SAT reduction
 * shape is what is reproduced.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/pauli_compiler.h"
#include "common/flags.h"
#include "common/table.h"

using namespace fermihedral;

namespace {

struct Row
{
    std::string case_name;
    circuit::CircuitCosts jw, bk, sat;
};

circuit::CircuitCosts
compileWith(api::Compiler &compiler,
            api::CompilationRequest request,
            const std::string &strategy, double time)
{
    request.strategy = strategy;
    const auto result = compiler.compile(request);
    return circuit::compileTrotter(result.qubitHamiltonian, time)
        .costs();
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Table 6: compiled circuit gate counts.");
    const auto *timeout =
        flags.addDouble("timeout", 60.0, "SAT budget per case (s)");
    const auto *time =
        flags.addDouble("time", 1.0, "evolution time t");
    bench::EngineFlags::add(flags);
    const auto *deadline = bench::addDeadlineFlag(flags);
    hw::TopologyFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("compiled gate counts", "Table 6");

    struct Case
    {
        std::string name;
        fermion::FermionHamiltonian hamiltonian;
        bench::Config config;
    };
    std::vector<Case> cases;
    cases.push_back({"H2 (4q)",
                     fermion::h2Sto3gIntegrals().toHamiltonian(),
                     bench::Config::FullSat});
    cases.push_back({"3x1 Hubbard (6q)",
                     fermion::fermiHubbard1D(3, 1.0, 4.0),
                     bench::Config::FullSat});
    cases.push_back({"2x2 Hubbard (8q)",
                     fermion::fermiHubbard2x2(1.0, 4.0),
                     bench::Config::NoAlg});

    Table table({"Case", "Gates", "JW", "BK", "Full SAT",
                 "Red. vs BK"});
    api::Compiler compiler;
    for (const auto &test_case : cases) {
        api::CompilationRequest request = bench::compilationRequest(
            test_case.config, *timeout / 2.0, *timeout);
        request.hamiltonian = test_case.hamiltonian;
        request.deadlineSeconds = *deadline;
        const std::string sat_strategy = request.strategy;

        const auto jw_costs =
            compileWith(compiler, request, "jordan-wigner", *time);
        const auto bk_costs =
            compileWith(compiler, request, "bravyi-kitaev", *time);
        const auto sat_costs =
            compileWith(compiler, request, sat_strategy, *time);

        struct Metric
        {
            const char *name;
            std::size_t circuit::CircuitCosts::*field;
        };
        const Metric metrics[] = {
            {"Single", &circuit::CircuitCosts::singleQubitGates},
            {"CNOT", &circuit::CircuitCosts::cnotGates},
            {"Total", &circuit::CircuitCosts::totalGates},
            {"Depth", &circuit::CircuitCosts::depth},
        };
        for (const auto &metric : metrics) {
            const auto jw_value = jw_costs.*(metric.field);
            const auto bk_value = bk_costs.*(metric.field);
            const auto sat_value = sat_costs.*(metric.field);
            table.addRow(
                {test_case.name, metric.name,
                 Table::num(std::int64_t(jw_value)),
                 Table::num(std::int64_t(bk_value)),
                 Table::num(std::int64_t(sat_value)),
                 Table::percent(1.0 - double(sat_value) /
                                          double(bk_value),
                                2)});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("Paper: ~20%% single-qubit and ~35%% CNOT reduction "
                "vs BK on these workloads.\n");
    tflags.report();
    return 0;
}
