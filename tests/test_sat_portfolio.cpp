/**
 * @file
 * Tests for the portfolio SAT engine: SolverBase conformance,
 * preprocessing integration (model reconstruction over eliminated
 * variables, frozen incremental interfaces, skipping under
 * assumptions), diversification, racing-mode cancellation, and
 * the deterministic-arbitration bit-identity guarantee across
 * thread counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.h"
#include "sat/dimacs.h"
#include "sat/portfolio.h"
#include "sat/solver.h"

namespace fermihedral::sat {
namespace {

EngineConfig
withInstances(std::size_t instances, std::size_t threads,
              bool deterministic = true)
{
    EngineConfig config;
    config.portfolioInstances = instances;
    config.threads = threads;
    config.deterministic = deterministic;
    return config;
}

/** Random 3-SAT clauses over `num_vars` fresh solver variables. */
std::vector<std::vector<Lit>>
randomCnf(SolverBase &solver, int num_vars, int num_clauses,
          Rng &rng)
{
    std::vector<std::vector<Lit>> cnf;
    for (int v = 0; v < num_vars; ++v)
        solver.newVar();
    for (int c = 0; c < num_clauses; ++c) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
            const Var var =
                static_cast<Var>(rng.nextBelow(num_vars));
            clause.push_back(mkLit(var, rng.nextBool()));
        }
        solver.addClause(clause);
        cnf.push_back(std::move(clause));
    }
    return cnf;
}

TEST(PortfolioSolver, SimpleSatAndFullModel)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a)});
    solver.addClause({~mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(a), LBool::True);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
}

TEST(PortfolioSolver, UnsatIsDetectedThroughPreprocessing)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    solver.addClause({mkLit(a), ~mkLit(b)});
    solver.addClause({~mkLit(a), mkLit(b)});
    solver.addClause({~mkLit(a), ~mkLit(b)});
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, ModelCoversEliminatedVariables)
{
    // A Tseitin-style auxiliary (y <-> a AND b) is eliminated by
    // preprocessing, yet its model value must read back correctly.
    PortfolioSolver solver(withInstances(1, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    const Var y = solver.newVar();
    solver.freeze(a);
    solver.freeze(b);
    solver.addClause({~mkLit(y), mkLit(a)});
    solver.addClause({~mkLit(y), mkLit(b)});
    solver.addClause({~mkLit(a), ~mkLit(b), mkLit(y)});
    solver.addClause({mkLit(a)});
    solver.addClause({mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(a), LBool::True);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    // y is forced by a AND b whether or not it was eliminated.
    EXPECT_EQ(solver.modelValue(y), LBool::True);
}

TEST(PortfolioSolver, FrozenVariablesAcceptLaterClauses)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.freeze(a);
    solver.freeze(b);
    solver.addClause({mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    // Incremental tightening over frozen variables, as the
    // descent loop does with totalizer outputs.
    solver.addClause({~mkLit(a)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    solver.addClause({~mkLit(b)});
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, AssumptionsOnFirstSolveSkipPreprocessing)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    const Lit assume[] = {~mkLit(a)};
    ASSERT_EQ(solver.solve(assume), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    // No simplification ran, so nothing was eliminated.
    EXPECT_EQ(solver.portfolioStats().simplifier.eliminatedVariables,
              0u);
    // Assumptions are not permanent.
    EXPECT_EQ(solver.solve(), SolveStatus::Sat);
}

TEST(PortfolioSolver, InstanceZeroMatchesPlainSolver)
{
    // The portfolio's instance 0 runs the stock configuration, so
    // a 1-instance no-preprocessing portfolio must agree with a
    // plain Solver on status and model, call for call.
    Rng rng(314);
    for (int round = 0; round < 10; ++round) {
        Solver plain;
        EngineConfig config = withInstances(1, 1);
        config.preprocess = false;
        PortfolioSolver portfolio(config);
        Rng plain_rng = rng.fork(round);
        Rng portfolio_rng = rng.fork(round);
        const auto cnf_a = randomCnf(plain, 14, 58, plain_rng);
        const auto cnf_b =
            randomCnf(portfolio, 14, 58, portfolio_rng);
        ASSERT_EQ(cnf_a.size(), cnf_b.size());
        const SolveStatus expected = plain.solve();
        ASSERT_EQ(portfolio.solve(), expected);
        if (expected == SolveStatus::Sat) {
            for (Var v = 0; v < 14; ++v)
                EXPECT_EQ(portfolio.modelValue(v),
                          plain.modelValue(v))
                    << "round " << round << " var " << v;
        }
    }
}

TEST(PortfolioSolver, DeterministicAcrossThreadCounts)
{
    // deterministic=true: identical status and model for every
    // thread count, including racing more instances than threads.
    Rng rng(2718);
    for (int round = 0; round < 6; ++round) {
        std::vector<std::vector<LBool>> models;
        std::vector<SolveStatus> statuses;
        for (const std::size_t threads : {1u, 2u, 4u}) {
            PortfolioSolver solver(withInstances(4, threads));
            Rng clause_rng = rng.fork(round);
            randomCnf(solver, 16, 70, clause_rng);
            const SolveStatus status = solver.solve();
            statuses.push_back(status);
            std::vector<LBool> model(16, LBool::Undef);
            if (status == SolveStatus::Sat) {
                for (Var v = 0; v < 16; ++v)
                    model[v] = solver.modelValue(v);
            }
            models.push_back(std::move(model));
        }
        for (std::size_t i = 1; i < statuses.size(); ++i) {
            EXPECT_EQ(statuses[i], statuses[0])
                << "round " << round;
            EXPECT_EQ(models[i], models[0]) << "round " << round;
        }
    }
}

TEST(PortfolioSolver, RacingModeAgreesOnVerdict)
{
    // Racing arbitration may pick any decisive instance, but the
    // verdict must match the reference solver and any Sat model
    // must satisfy the formula.
    Rng rng(9001);
    for (int round = 0; round < 6; ++round) {
        Solver reference;
        PortfolioSolver racing(withInstances(4, 4, false));
        Rng ref_rng = rng.fork(round);
        Rng race_rng = rng.fork(round);
        const auto cnf = randomCnf(reference, 16, 70, ref_rng);
        randomCnf(racing, 16, 70, race_rng);
        const SolveStatus expected = reference.solve();
        const SolveStatus status = racing.solve();
        ASSERT_EQ(status, expected) << "round " << round;
        if (status == SolveStatus::Sat) {
            for (const auto &clause : cnf) {
                bool satisfied = false;
                for (const Lit lit : clause)
                    satisfied |=
                        racing.modelValue(lit) == LBool::True;
                EXPECT_TRUE(satisfied) << "round " << round;
            }
        }
    }
}

TEST(PortfolioSolver, DiversifiedConfigsDiffer)
{
    const SolverConfig base = PortfolioSolver::instanceConfig(0);
    EXPECT_EQ(base.seed, 0u);
    EXPECT_EQ(base.randomBranchFreq, 0.0);
    for (std::size_t i = 1; i < 8; ++i) {
        const SolverConfig config =
            PortfolioSolver::instanceConfig(i);
        EXPECT_NE(config.seed, 0u) << "instance " << i;
    }
    // Adjacent instances must not share the whole heuristic tuple.
    for (std::size_t i = 0; i + 1 < 8; ++i) {
        const SolverConfig a = PortfolioSolver::instanceConfig(i);
        const SolverConfig b =
            PortfolioSolver::instanceConfig(i + 1);
        const bool differs =
            a.seed != b.seed ||
            a.randomBranchFreq != b.randomBranchFreq ||
            a.initialPhase != b.initialPhase ||
            a.randomizePhases != b.randomizePhases ||
            a.restartSchedule != b.restartSchedule ||
            a.restartBase != b.restartBase;
        EXPECT_TRUE(differs) << "instances " << i << ", " << i + 1;
    }
}

TEST(PortfolioSolver, StatsAggregateAcrossInstances)
{
    PortfolioSolver solver(withInstances(3, 1));
    Rng rng(555);
    randomCnf(solver, 14, 60, rng);
    solver.solve();
    const PortfolioStats &stats = solver.portfolioStats();
    EXPECT_EQ(stats.solves, 1u);
    EXPECT_EQ(stats.satAnswers + stats.unsatAnswers +
                  stats.unknownAnswers,
              1u);
    // Deterministic mode runs every instance to completion, so the
    // aggregate covers at least the winner's work.
    EXPECT_GE(stats.aggregate.propagations,
              stats.winner.propagations);
}

TEST(PortfolioSolver, RacingSolvesPigeonhole)
{
    // PHP(6,5) forces real conflict work on every instance; the
    // race must still return correct UNSAT.
    PortfolioSolver solver(withInstances(3, 3, false));
    const int holes = 5, pigeons = 6;
    std::vector<std::vector<Var>> at(pigeons,
                                     std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p][h] = solver.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(
                    {~mkLit(at[p][h]), ~mkLit(at[q][h])});
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, ContradictoryUnitsReportConflictAtAddTime)
{
    // Mirrors SatSolver.ContradictoryUnitsAreUnsat and the
    // Cnf::loadInto contract: the second unit reports the conflict.
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    EXPECT_TRUE(solver.addClause({mkLit(a)}));
    EXPECT_FALSE(solver.addClause({~mkLit(a)}));
    EXPECT_TRUE(solver.inconsistent());
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, VariablesCreatedAfterFirstSolveAreUsable)
{
    // The SolverBase contract: variables and clauses may be added
    // between solve() calls, including after preprocessing ran.
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    solver.freeze(a);
    solver.addClause({mkLit(a)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    const Var b = solver.newVar();
    solver.addClause({~mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
}

TEST(PortfolioSolver, CallerStopFlagCancelsAllInstances)
{
    // A pre-set caller stop flag must be relayed to every racing
    // instance: the hard pigeonhole below would otherwise burn
    // CPU for a long time before answering.
    PortfolioSolver solver(withInstances(2, 1, false));
    const int holes = 9, pigeons = 10;
    std::vector<std::vector<Var>> at(pigeons,
                                     std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p][h] = solver.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(
                    {~mkLit(at[p][h]), ~mkLit(at[q][h])});
    std::atomic<bool> stop{true};
    Budget budget;
    budget.stopFlag = &stop;
    EXPECT_EQ(solver.solve({}, budget), SolveStatus::Unknown);
}

TEST(PortfolioSolver, CallerStopFlagCancelsDeterministicMode)
{
    // Deterministic mode runs every instance to completion and
    // picks the winner by fixed precedence — so cancellation must
    // reach each instance through its own budget, not through the
    // racing watcher (which deterministic mode does not start).
    PortfolioSolver solver(withInstances(2, 2, true));
    const int holes = 9, pigeons = 10;
    std::vector<std::vector<Var>> at(pigeons,
                                     std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p][h] = solver.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(
                    {~mkLit(at[p][h]), ~mkLit(at[q][h])});
    std::atomic<bool> stop{true};
    Budget budget;
    budget.stopFlag = &stop;
    EXPECT_EQ(solver.solve({}, budget), SolveStatus::Unknown);
}

TEST(PortfolioSolver, CnfLoadsThroughSolverBase)
{
    const Cnf cnf = parseDimacs("p cnf 3 3\n"
                                "1 0\n"
                                "-1 2 0\n"
                                "-2 3 0\n");
    PortfolioSolver solver(withInstances(2, 1));
    ASSERT_TRUE(cnf.loadInto(solver));
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(Var{2}), LBool::True);
}

} // namespace
} // namespace fermihedral::sat
