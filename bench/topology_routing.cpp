/**
 * @file
 * Routed-depth study: what the weight objective misses on real
 * connectivity. The paper's metric (Pauli weight, Eq. 14) assumes
 * all-to-all coupling; on a grid or heavy-hex device every
 * non-adjacent CNOT costs SWAPs. This bench compiles each workload
 * with the weight-optimal `sat` strategy and the two
 * connectivity-aware ones (`sat-routed` relabels the SAT encoding's
 * qubits, `pick-routed` additionally races the closed-form
 * baselines), routes the one-step Trotter circuit of each result
 * with hw/router.h, and reports routed two-qubit count / SWAPs /
 * depth side by side.
 *
 * --check turns the table into an assertion for CI: the routed-cost
 * strategies must never route to MORE two-qubit gates than the
 * weight-optimal baseline (they select by exactly this metric, with
 * the baseline's encoding among the candidates), and
 * --require-improvement additionally demands at least one strictly
 * better cell. --json writes the rows as a machine-readable
 * artifact.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/model_spec.h"
#include "bench_util.h"
#include "circuit/pauli_compiler.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/table.h"
#include "hw/routed_cost.h"
#include "hw/router.h"

using namespace fermihedral;

namespace {

/** Split a comma-separated flag value, dropping empty items. */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(start, end - start);
        while (!item.empty() && item.front() == ' ')
            item.erase(item.begin());
        while (!item.empty() && item.back() == ' ')
            item.pop_back();
        if (!item.empty())
            items.push_back(std::move(item));
        start = end + 1;
    }
    return items;
}

/** One measured (workload, topology, strategy) cell. */
struct Cell
{
    std::string workload;
    std::string topology;
    std::string strategy;
    std::size_t objectiveCost = 0;
    std::size_t estimate = 0;
    std::size_t logicalCnots = 0;
    hw::RoutedStats routed;
    bool provedOptimal = false;
};

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags(
        "Routed two-qubit cost of weight-optimal vs routed-cost "
        "strategies on constrained topologies.");
    const auto *timeout =
        flags.addDouble("timeout", 20.0, "SAT budget per compile "
                                         "(s)");
    const auto *topologies_flag = flags.addString(
        "topologies", "grid:2x4,heavy-hex:1",
        "comma-separated topology specs to sweep");
    const auto *workloads_flag = flags.addString(
        "workloads", "h2,hubbard:2x2",
        "comma-separated model specs to sweep (api/model_spec.h "
        "grammar)");
    const auto *check = flags.addBool(
        "check", false,
        "exit 1 if any routed-cost strategy routes to more "
        "two-qubit gates than the weight-optimal sat baseline");
    const auto *require_improvement = flags.addBool(
        "require-improvement", false,
        "with --check, also require at least one strictly better "
        "routed two-qubit cell");
    const auto *json_path = flags.addString(
        "json", "", "write the measured cells to this JSON file");
    const auto engine = bench::EngineFlags::add(flags);
    const auto *deadline = bench::addDeadlineFlag(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    bench::addProgressFlag(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("routed depth on constrained topologies",
                  "hardware-topology extension");

    const auto workloads = splitList(*workloads_flag);
    const auto topologies = splitList(*topologies_flag);
    if (workloads.empty() || topologies.empty())
        fatal("--workloads and --topologies must each name at "
              "least one item");
    const std::vector<std::string> strategies = {
        "sat", "sat-routed", "pick-routed"};

    Table table({"Workload", "Topology", "Strategy", "Obj cost",
                 "Est 2q", "CNOTs", "Routed 2q", "SWAPs", "Depth",
                 "Optimal"});
    std::vector<Cell> cells;
    api::Compiler compiler;
    for (const auto &workload : workloads) {
        for (const auto &topology_spec : topologies) {
            for (const auto &strategy : strategies) {
                api::RequestSpec spec;
                spec.problem = workload;
                spec.topology = topology_spec;
                spec.strategy = strategy;
                spec.stepTimeoutSeconds = *timeout / 2.0;
                spec.totalTimeoutSeconds = *timeout;
                auto request = api::buildRequest(spec);
                engine.apply(request);
                request.deadlineSeconds = *deadline;
                bench::applyProgressFlag(request);

                const auto compiled = compiler.compile(request);
                // Same measurement the routed strategies select
                // by: one-step Trotter circuit, default router.
                const auto circuit = circuit::compileTrotter(
                    compiled.qubitHamiltonian, 1.0);
                const auto routed = hw::routeCircuit(
                    circuit, *request.topology);

                Cell cell;
                cell.workload = workload;
                cell.topology = topology_spec;
                cell.strategy = strategy;
                cell.objectiveCost = compiled.cost;
                cell.estimate = hw::routedCostEstimate(
                    *request.hamiltonian, compiled.encoding,
                    *request.topology);
                cell.logicalCnots = circuit.costs().cnotGates;
                cell.routed = routed.stats;
                cell.provedOptimal = compiled.provedOptimal;
                cells.push_back(cell);

                table.addRow(
                    {workload, topology_spec, strategy,
                     Table::num(std::int64_t(cell.objectiveCost)),
                     Table::num(std::int64_t(cell.estimate)),
                     Table::num(std::int64_t(cell.logicalCnots)),
                     Table::num(
                         std::int64_t(routed.stats.twoQubitGates)),
                     Table::num(std::int64_t(routed.stats.swaps)),
                     Table::num(std::int64_t(routed.stats.depth)),
                     cell.provedOptimal ? "yes" : "no"});
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "Routed 2q counts CNOTs after SWAP insertion (3 per SWAP); "
        "the routed-cost strategies select by exactly that metric, "
        "so they should never lose to the weight-optimal rows.\n");

    // The --check contract: per (workload, topology), every
    // routed-cost strategy's routed 2q <= sat's.
    std::size_t violations = 0, strict_wins = 0, compared = 0;
    std::map<std::pair<std::string, std::string>, std::size_t>
        baseline;
    for (const auto &cell : cells)
        if (cell.strategy == "sat")
            baseline[{cell.workload, cell.topology}] =
                cell.routed.twoQubitGates;
    for (const auto &cell : cells) {
        if (cell.strategy == "sat")
            continue;
        const std::size_t sat_2q =
            baseline.at({cell.workload, cell.topology});
        ++compared;
        if (cell.routed.twoQubitGates > sat_2q) {
            ++violations;
            std::fprintf(
                stderr,
                "check: %s on %s: %s routed to %zu 2q gates > "
                "sat's %zu\n",
                cell.workload.c_str(), cell.topology.c_str(),
                cell.strategy.c_str(), cell.routed.twoQubitGates,
                sat_2q);
        } else if (cell.routed.twoQubitGates < sat_2q) {
            ++strict_wins;
        }
    }
    std::printf("routed-cost strategies matched or beat the "
                "baseline in %zu/%zu cells (%zu strictly "
                "better).\n",
                compared - violations, compared, strict_wins);

    if (!json_path->empty()) {
        JsonWriter w;
        w.beginArray();
        for (const auto &cell : cells) {
            w.beginObject()
                .member("workload", cell.workload)
                .member("topology", cell.topology)
                .member("strategy", cell.strategy)
                .member("objective_cost",
                        std::uint64_t(cell.objectiveCost))
                .member("estimated_2q",
                        std::uint64_t(cell.estimate))
                .member("logical_cnots",
                        std::uint64_t(cell.logicalCnots))
                .member("routed_2q",
                        std::uint64_t(cell.routed.twoQubitGates))
                .member("swaps", std::uint64_t(cell.routed.swaps))
                .member("depth", std::uint64_t(cell.routed.depth))
                .member("proved_optimal", cell.provedOptimal)
                .endObject();
        }
        w.endArray();
        std::FILE *f = std::fopen(json_path->c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path->c_str());
            tflags.report();
            return 1;
        }
        std::fputs(w.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path->c_str());
    }
    tflags.report();

    if (*check) {
        if (violations > 0)
            return 1;
        if (*require_improvement && strict_wins == 0) {
            std::fprintf(stderr,
                         "check: no strictly better routed 2q "
                         "cell anywhere in the sweep\n");
            return 1;
        }
    }
    return 0;
}
