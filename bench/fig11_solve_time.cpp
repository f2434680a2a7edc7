/**
 * @file
 * Figure 11: time to construct and to solve the encoding problem
 * with vs without the algebraic independence clauses, and the
 * resulting speedups. The paper's "solving" time excludes the time
 * the solver spends proving that no cheaper encoding exists: the
 * "Best" columns are the time until the best model was found. The
 * "Proof" columns add the whole descent including that proof, and
 * "Proved" says whether it ended in one or ran out of budget.
 *
 * On top of the paper's figure this binary exposes the SAT engine:
 * --threads/--instances/--racing/--preprocess select the portfolio
 * configuration, a second table reports per-run solver statistics
 * (propagations, conflicts, learnt literals, simplifier
 * eliminations). Performance over time is tracked by perfbench/,
 * not by this binary.
 */

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/table.h"

using namespace fermihedral;

namespace {

struct Measurement
{
    double construct = 0.0;
    double solve = 0.0;
    double totalSolve = 0.0;
    core::DescentResult result;
};

Measurement
run(std::size_t modes, bench::Config config, double timeout)
{
    // Same paper configuration the other benches use, with the
    // registered EngineFlags overlay applied by descentOptions().
    core::DescentSolver solver(
        modes, bench::descentOptions(config, timeout / 2.0, timeout));
    Measurement m;
    m.result = solver.solve();
    m.construct = m.result.constructSeconds;
    // Exclude the final UNSAT/timeout round: take the time of the
    // last improving model (the paper's convention).
    m.solve = m.result.trajectory.empty()
                  ? m.result.solveSeconds
                  : m.result.trajectory.back().second;
    m.totalSolve = m.result.solveSeconds;
    return m;
}

std::string
trajectoryString(const core::DescentResult &result)
{
    std::string out;
    for (const auto &[cost, seconds] : result.trajectory) {
        if (!out.empty())
            out += ' ';
        out += std::to_string(cost);
        out += '@';
        out += Table::num(seconds, 3);
        out += 's';
    }
    return out.empty() ? std::string("(baseline only)") : out;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 11: construct/solve time w/ and w/o "
                  "algebraic independence, with SAT-engine "
                  "statistics.");
    const auto *max_modes =
        flags.addInt("max-modes", 5, "largest mode count");
    const auto *timeout =
        flags.addDouble("timeout", 60.0, "budget per run (s)");
    const auto engine = bench::EngineFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    bench::addProgressFlag(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("time to construct and solve", "Figure 11");
    Table table({"Modes", "Construct w/ (s)", "Construct w/o (s)",
                 "Speedup", "Best w/ (s)", "Best w/o (s)", "Speedup",
                 "Proof w/ (s)", "Proof w/o (s)", "Proved w/,w/o",
                 "Same cost?"});
    Table stats({"Modes", "Config", "Props", "Conflicts",
                 "Learnt lits", "Elim vars",
                 "Clauses simp/orig", "GCs", "Inproc",
                 "Viv lits", "SAT calls", "Cost@walltime"});

    // Discarded warmup: the first descent of the process pays the
    // allocator and page-fault costs, which at N=2/3 are the same
    // order as the measured solve itself.
    (void)run(2, bench::Config::NoAlg, *timeout);

    for (std::int64_t n = 2; n <= *max_modes; ++n) {
        const auto with = run(static_cast<std::size_t>(n),
                              bench::Config::FullSat, *timeout);
        const auto without = run(static_cast<std::size_t>(n),
                                 bench::Config::NoAlg, *timeout);
        auto speedup = [](double a, double b) {
            return b > 1e-9 ? Table::num(a / b, 1) + "x"
                            : std::string("-");
        };
        table.addRow(
            {Table::num(n), Table::num(with.construct, 4),
             Table::num(without.construct, 4),
             speedup(with.construct, without.construct),
             Table::num(with.solve, 4),
             Table::num(without.solve, 4),
             speedup(with.solve, without.solve),
             Table::num(with.totalSolve, 4),
             Table::num(without.totalSolve, 4),
             std::string(with.result.provedOptimal ? "yes" : "no") +
                 "," + (without.result.provedOptimal ? "yes" : "no"),
             with.result.cost == without.result.cost ? "yes"
                                                     : "no"});
        for (const auto *m : {&with, &without}) {
            const auto &s = m->result.satStats;
            stats.addRow(
                {Table::num(n), m == &with ? "w/ alg" : "w/o alg",
                 Table::num(std::int64_t(
                     s.aggregate.propagations)),
                 Table::num(std::int64_t(s.aggregate.conflicts)),
                 Table::num(std::int64_t(
                     s.aggregate.learntLiterals)),
                 Table::num(std::int64_t(
                     s.simplifier.eliminatedVariables)),
                 Table::num(std::int64_t(
                     s.simplifier.simplifiedClauses)) +
                     "/" +
                     Table::num(std::int64_t(
                         s.simplifier.originalClauses)),
                 Table::num(std::int64_t(
                     s.aggregate.garbageCollects)),
                 Table::num(std::int64_t(
                     s.aggregate.inprocessings)),
                 Table::num(std::int64_t(
                     s.aggregate.vivifiedLiterals)),
                 Table::num(std::int64_t(m->result.satCalls)),
                 trajectoryString(m->result)});
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("Dropping the 4^N independence clauses should give "
                "growing construct and solve speedups while the "
                "optimal cost stays identical (Sec. 4.1). Best is "
                "time-to-best (the paper's solve time); Proof is the "
                "whole descent, a full budget when unproved.\n\n");
    std::printf("%s", stats.render().c_str());
    const std::size_t resolved_threads =
        ThreadPool::resolveThreadCount(*engine.threads);
    const std::size_t resolved_instances =
        *engine.instances > 0
            ? static_cast<std::size_t>(*engine.instances)
            : resolved_threads;
    std::printf("Engine: %zu thread(s), %zu instance(s), %s "
                "arbitration, preprocessing %s, carry-over %s, "
                "inprocessing %s.\n",
                resolved_threads, resolved_instances,
                *engine.racing ? "racing" : "deterministic",
                *engine.preprocess ? "on" : "off",
                *engine.carry ? "on" : "off",
                *engine.inprocess ? "on" : "off");

    tflags.report();
    return 0;
}
