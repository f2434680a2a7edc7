/**
 * @file
 * Quickstart: compile a small system through the unified Compiler
 * facade under every registered encoding strategy and compare the
 * results. With --cache-dir the CompilerService persists solved
 * encodings, so a second run answers from the cache without any
 * SAT search (the cache line at the bottom reports it).
 *
 * Usage: quickstart [--modes=3] [--timeout=30] [--strategy=sat]
 *                   [--deadline-seconds=0] [--cache-dir=PATH]
 *                   [--cache-stats-json=FILE]
 */

#include <cstdio>
#include <fstream>

#include "api/service.h"
#include "api/strategy_registry.h"
#include "common/flags.h"
#include "common/telemetry_flags.h"
#include "common/table.h"
#include "hw/topology_flags.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Compile a small system under every encoding "
                  "strategy via the Compiler facade.");
    const auto *modes = flags.addInt("modes", 3, "Fermionic modes");
    const auto *timeout =
        flags.addDouble("timeout", 30.0, "total solve budget (s)");
    const auto *strategy = flags.addString(
        "strategy", "sat", "strategy for the detailed printout");
    const auto *cache_dir = flags.addString(
        "cache-dir", "", "on-disk encoding cache directory "
                         "(empty = in-memory only)");
    const auto *stats_json = flags.addString(
        "cache-stats-json", "",
        "write cache statistics to this JSON file");
    const auto *deadline = flags.addDouble(
        "deadline-seconds", 0.0,
        "wall-clock deadline per compilation (<= 0 = none); past "
        "it the pipeline returns its best-so-far encoding with "
        "status deadline-exceeded");
    const auto topo_flags = hw::TopologyFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();
    const auto topology = topo_flags.resolve();

    const auto n = static_cast<std::size_t>(*modes);
    std::printf("Compiling %zu modes through the facade...\n", n);

    api::ServiceOptions service_options;
    service_options.diskCachePath = *cache_dir;
    api::CompilerService service(service_options);

    api::CompilationRequest request;
    request.modes = n;
    request.stepTimeoutSeconds = *timeout / 3.0;
    request.totalTimeoutSeconds = *timeout;
    request.deadlineSeconds = *deadline;
    // A --topology flag resolves the Auto objective to routed-cost:
    // the cost column below becomes the routed two-qubit estimate.
    if (topology)
        request.topology = *topology;

    // One request per strategy, submitted as one async batch.
    const std::vector<std::string> strategies = {
        "jordan-wigner", "bravyi-kitaev", "ternary-tree", *strategy};
    std::vector<api::CompilationRequest> batch;
    for (const std::string &name : strategies) {
        request.strategy = name;
        batch.push_back(request);
    }
    const auto results = service.compileBatch(std::move(batch));

    const auto &chosen = results.back();
    std::printf("\nMajorana operators from strategy '%s' (%s):\n",
                chosen.strategy.c_str(),
                chosen.provedOptimal ? "proved optimal"
                : chosen.fromCache   ? "cached"
                : chosen.status != api::ResultStatus::Ok
                    ? api::resultStatusName(chosen.status)
                    : "best found in budget");
    for (std::size_t j = 0; j < n; ++j) {
        std::printf("  mode %zu:  gamma[%zu] = %s   gamma[%zu] = %s\n",
                    j, 2 * j,
                    chosen.encoding.majoranas[2 * j].label().c_str(),
                    2 * j + 1,
                    chosen.encoding.majoranas[2 * j + 1]
                        .label()
                        .c_str());
    }
    std::printf("\nconstraints: anticommutativity=%s "
                "independence=%s xy-pairing=%s\n",
                chosen.validation.anticommutativity ? "ok" : "FAIL",
                chosen.validation.algebraicIndependence ? "ok"
                                                        : "FAIL",
                chosen.validation.xyPairing ? "ok" : "FAIL");

    Table table({"Strategy",
                 topology ? "Routed 2q est." : "Total Pauli weight",
                 "Per operator", "Optimal?", "SAT calls"});
    for (const auto &result : results) {
        table.addRow(
            {result.strategy, Table::num(std::int64_t(result.cost)),
             Table::num(result.encoding.weightPerOperator(), 2),
             result.provedOptimal ? "yes" : "-",
             Table::num(std::int64_t(result.satCalls))});
    }
    std::printf("\n%s", table.render().c_str());

    const auto stats = service.cacheStats();
    std::printf("registered strategies:");
    for (const auto &name : api::registeredStrategyNames())
        std::printf(" %s", name.c_str());
    std::printf("\ncache: %zu hits (%zu from disk), %zu misses\n",
                stats.hits, stats.diskHits, stats.misses);
    if (!stats_json->empty()) {
        std::ofstream out(*stats_json);
        out << service.cacheStatsJson() << '\n';
    }
    tflags.report();
    return 0;
}
