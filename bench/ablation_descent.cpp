/**
 * @file
 * Ablation study for two descent design choices, the
 * DescentOptions toggles in core/descent_solver.h:
 *  - warmStart (phase + activity seeding from the baseline),
 *  - vacuumPreservation, the optional vacuum X/Y-pairing
 *    constraint (paper Sec. 3.1),
 * measured by the best cost reached and the time to reach it under
 * a fixed budget.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "common/table.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Ablation: warm start and vacuum constraint.");
    const auto *max_modes =
        flags.addInt("max-modes", 4, "largest mode count");
    const auto *timeout =
        flags.addDouble("timeout", 20.0, "budget per run (s)");
    bench::EngineFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    bench::addProgressFlag(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("descent ablations", "Sec. 3.1");
    Table table({"Modes", "Warm start", "Vacuum", "Cost",
                 "Time-to-best (s)", "SAT calls", "Optimal?"});

    for (std::int64_t n = 3; n <= *max_modes; ++n) {
        for (const bool warm : {true, false}) {
            for (const bool vacuum : {true, false}) {
                core::DescentOptions options =
                    bench::descentOptions(bench::Config::FullSat,
                                          *timeout / 2.0, *timeout,
                                          vacuum);
                options.warmStart = warm;
                core::DescentSolver solver(
                    static_cast<std::size_t>(n), options);
                const auto result = solver.solve();
                const double time_to_best =
                    result.trajectory.empty()
                        ? result.solveSeconds
                        : result.trajectory.back().second;
                table.addRow(
                    {Table::num(n), warm ? "on" : "off",
                     vacuum ? "on" : "off",
                     Table::num(std::int64_t(result.cost)),
                     Table::num(time_to_best, 3),
                     Table::num(std::int64_t(result.satCalls)),
                     result.provedOptimal ? "yes" : "no"});
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("Expected: warm start shortens time-to-best; "
                "removing the (optional) vacuum constraint never "
                "raises the optimal cost.\n");
    tflags.report();
    return 0;
}
