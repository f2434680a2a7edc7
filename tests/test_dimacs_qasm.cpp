/**
 * @file
 * Tests for the DIMACS CNF interchange format.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "core/encoding_model.h"
#include "sat/dimacs.h"

namespace fermihedral {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::mkLit;

TEST(Dimacs, RoundTripPreservesClauses)
{
    Cnf cnf;
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    cnf.addClause(std::vector<Lit>{a, ~b});
    cnf.addClause(std::vector<Lit>{b, c});
    cnf.addClause(std::vector<Lit>{~a, ~c});
    const std::string text = toDimacs(cnf);
    const Cnf parsed = sat::parseDimacs(text);
    ASSERT_EQ(parsed.clauses.size(), cnf.clauses.size());
    EXPECT_EQ(parsed.numVars, 3u);
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
        EXPECT_EQ(parsed.clauses[i], cnf.clauses[i]);
}

TEST(Dimacs, TextFormatIsStandard)
{
    Cnf cnf;
    cnf.addClause(std::vector<Lit>{mkLit(0), ~mkLit(1)});
    const std::string text = toDimacs(cnf);
    EXPECT_NE(text.find("p cnf 2 1"), std::string::npos);
    EXPECT_NE(text.find("1 -2 0"), std::string::npos);
}

TEST(Dimacs, ParserRejectsGarbage)
{
    EXPECT_THROW(sat::parseDimacs("1 2 0\n"), FatalError);
    EXPECT_THROW(sat::parseDimacs("p cnf 2 1\n1 2\n"), FatalError);
    EXPECT_THROW(sat::parseDimacs("p dnf 2 1\n1 2 0\n"),
                 FatalError);
}

TEST(Dimacs, ParserRejectsDuplicateAndContradictoryLiterals)
{
    // A repeated literal within a clause is a generator bug.
    EXPECT_THROW(sat::parseDimacs("p cnf 2 1\n1 2 1 0\n"),
                 FatalError);
    // So is a tautological x OR NOT x clause.
    EXPECT_THROW(sat::parseDimacs("p cnf 2 1\n1 -1 0\n"),
                 FatalError);
    EXPECT_THROW(sat::parseDimacs("p cnf 3 2\n1 2 0\n-3 2 3 0\n"),
                 FatalError);
    // The same literals across different clauses stay legal.
    const Cnf cnf =
        sat::parseDimacs("p cnf 2 2\n1 2 0\n-1 2 0\n");
    EXPECT_EQ(cnf.clauses.size(), 2u);
}

TEST(Dimacs, RandomRoundTripPreservesClauses)
{
    // Property: write -> parse is the identity on clause lists
    // (duplicate-free clauses, as the writer's callers produce).
    Rng rng(321);
    for (int round = 0; round < 50; ++round) {
        const std::size_t num_vars = 1 + rng.nextBelow(30);
        const std::size_t num_clauses = rng.nextBelow(40);
        Cnf cnf;
        cnf.numVars = num_vars;
        for (std::size_t c = 0; c < num_clauses; ++c) {
            // Pick distinct variables, then random signs.
            std::vector<sat::Var> vars;
            for (sat::Var v = 0;
                 static_cast<std::size_t>(v) < num_vars; ++v)
                vars.push_back(v);
            const std::size_t size =
                1 + rng.nextBelow(std::min<std::size_t>(
                        num_vars, 5));
            std::vector<Lit> clause;
            for (std::size_t k = 0; k < size; ++k) {
                const std::size_t pick =
                    rng.nextBelow(vars.size());
                clause.push_back(
                    mkLit(vars[pick], rng.nextBool()));
                vars[pick] = vars.back();
                vars.pop_back();
            }
            cnf.addClause(clause);
        }
        const Cnf parsed = sat::parseDimacs(toDimacs(cnf));
        ASSERT_EQ(parsed.clauses.size(), cnf.clauses.size())
            << "round " << round;
        EXPECT_EQ(parsed.numVars, cnf.numVars)
            << "round " << round;
        for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
            EXPECT_EQ(parsed.clauses[i], cnf.clauses[i])
                << "round " << round << " clause " << i;
    }
}

TEST(Dimacs, LoadIntoSolverSolves)
{
    const Cnf cnf = sat::parseDimacs(
        "c a simple implication chain\n"
        "p cnf 3 3\n"
        "1 0\n"
        "-1 2 0\n"
        "-2 3 0\n");
    sat::Solver solver;
    ASSERT_TRUE(cnf.loadInto(solver));
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(sat::Var{2}), sat::LBool::True);
}

TEST(Dimacs, SnapshotCapturesEncodingModel)
{
    sat::Solver solver;
    core::EncodingModelOptions options;
    options.modes = 2;
    options.costCap = 8;
    core::EncodingModel model(solver, options);
    const Cnf cnf = sat::snapshotCnf(solver);
    EXPECT_EQ(cnf.numVars, solver.numVars());
    EXPECT_GT(cnf.clauses.size(), 100u);

    // The exported instance must be satisfiable in a fresh solver.
    sat::Solver replay;
    ASSERT_TRUE(cnf.loadInto(replay));
    EXPECT_EQ(replay.solve(), sat::SolveStatus::Sat);
}

TEST(Dimacs, SnapshotEmitsOnlyProblemClauses)
{
    // After a solve the database also holds learnt clauses; the
    // export must not include them (a learnt clause surviving an
    // arena collection has no well-defined place in the original
    // instance). Solving may fix variables at level 0 — those show
    // up as extra unit facts — but every non-unit clause of the
    // snapshot must still be an original problem clause.
    sat::Solver solver;
    core::EncodingModelOptions options;
    options.modes = 2;
    options.costCap = 8;
    core::EncodingModel model(solver, options);
    const Cnf before = sat::snapshotCnf(solver);

    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    const Cnf after = sat::snapshotCnf(solver);

    // Propagation reorders the first two literals of a clause in
    // place (watched-literal swapping), so compare clauses as sets.
    auto nonUnits = [](const Cnf &cnf) {
        std::vector<std::vector<sat::Lit>> out;
        for (const auto &clause : cnf.clauses) {
            if (clause.size() > 1) {
                out.push_back(clause);
                std::sort(out.back().begin(), out.back().end());
            }
        }
        return out;
    };
    EXPECT_EQ(nonUnits(after), nonUnits(before));

    // clearLearnts() drops only learnt clauses: the export surface
    // is bit-identical before and after.
    solver.clearLearnts();
    const Cnf cleared = sat::snapshotCnf(solver);
    ASSERT_EQ(cleared.clauses.size(), after.clauses.size());
    for (std::size_t i = 0; i < after.clauses.size(); ++i)
        EXPECT_EQ(cleared.clauses[i], after.clauses[i])
            << "clause " << i;

    // And the snapshot round-trips through DIMACS text.
    const Cnf parsed = sat::parseDimacs(sat::toDimacs(after));
    ASSERT_EQ(parsed.clauses.size(), after.clauses.size());
    for (std::size_t i = 0; i < after.clauses.size(); ++i)
        EXPECT_EQ(parsed.clauses[i], after.clauses[i])
            << "clause " << i;
}

} // namespace
} // namespace fermihedral
