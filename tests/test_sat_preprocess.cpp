/**
 * @file
 * Unit and property tests for the clause-database simplifier.
 *
 * The property suite runs random 3-SAT instances through unit
 * propagation and bounded variable elimination and checks (a) the
 * SAT/UNSAT verdict agrees with the unsimplified solver and (b) a
 * model of the simplified formula, extended by witness
 * reconstruction, satisfies every original clause — the contract
 * EncodingModel::decode() depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/encoding_model.h"
#include "encodings/linear.h"
#include "sat/dimacs.h"
#include "sat/preprocess.h"
#include "sat/solver.h"

namespace fermihedral::sat {
namespace {

bool
modelSatisfies(const std::vector<std::vector<Lit>> &clauses,
               const std::vector<LBool> &model)
{
    for (const auto &clause : clauses) {
        bool satisfied = false;
        for (const Lit lit : clause) {
            const LBool v = model[litVar(lit)];
            if ((litSign(lit) ? -v : v) == LBool::True) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied)
            return false;
    }
    return true;
}

TEST(Simplifier, EliminatesTseitinAuxiliary)
{
    // y <-> a AND b, plus {y, c}: y is a classic BVE victim.
    Simplifier simp(4);
    const Lit a = mkLit(0), b = mkLit(1), y = mkLit(2),
              c = mkLit(3);
    simp.addClause({~y, a});
    simp.addClause({~y, b});
    simp.addClause({~a, ~b, y});
    simp.addClause({y, c});
    simp.freeze(0);
    simp.freeze(1);
    simp.freeze(3);
    simp.run();
    EXPECT_TRUE(simp.isEliminated(2));
    EXPECT_FALSE(simp.isEliminated(0));
    EXPECT_GE(simp.stats().eliminatedVariables, 1u);

    // A model over the survivors must reconstruct y correctly:
    // with a=1, b=1, c=0 the witness clause {y, c} is not
    // satisfied without y, so reconstruction must set y=1 (which
    // also satisfies y <-> a AND b).
    std::vector<LBool> model(4, LBool::Undef);
    model[0] = LBool::True;
    model[1] = LBool::True;
    model[3] = LBool::False;
    simp.reconstruct(model);
    EXPECT_EQ(model[2], LBool::True);
}

TEST(Simplifier, PureLiteralIsEliminated)
{
    Simplifier simp(3);
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    simp.addClause({a, b});
    simp.addClause({a, c});
    simp.freeze(1);
    simp.freeze(2);
    simp.run();
    // `a` only occurs positively: pure, eliminated with zero
    // resolvents, and both clauses disappear.
    EXPECT_TRUE(simp.isEliminated(0));
    EXPECT_EQ(simp.simplifiedClauses().size(), 0u);
    // With b and c false, only a=true satisfies the originals;
    // reconstruction must pick it.
    std::vector<LBool> model(3, LBool::Undef);
    model[1] = LBool::False;
    model[2] = LBool::False;
    simp.reconstruct(model);
    EXPECT_EQ(model[0], LBool::True);
}

TEST(Simplifier, ComplementaryPairCollapsesToUnit)
{
    // {a, b} and {a, ~b}: eliminating b leaves the resolvent {a},
    // fixing the frozen a at the top level (not eliminating it).
    Simplifier simp(2);
    const Lit a = mkLit(0), b = mkLit(1);
    simp.addClause({a, b});
    simp.addClause({a, ~b});
    simp.freeze(0);
    simp.run();
    EXPECT_TRUE(simp.isEliminated(1));
    EXPECT_FALSE(simp.isEliminated(0));
    const auto clauses = simp.simplifiedClauses();
    ASSERT_EQ(clauses.size(), 1u);
    ASSERT_EQ(clauses[0].size(), 1u);
    EXPECT_EQ(clauses[0][0], a);
}

TEST(Simplifier, FrozenVariablesSurvive)
{
    Simplifier simp(4);
    const Lit a = mkLit(0), b = mkLit(1), y = mkLit(2);
    simp.addClause({~y, a});
    simp.addClause({~y, b});
    simp.addClause({~a, ~b, y});
    for (Var v = 0; v < 4; ++v)
        simp.freeze(v);
    simp.run();
    for (Var v = 0; v < 4; ++v)
        EXPECT_FALSE(simp.isEliminated(v)) << "var " << v;
}

TEST(Simplifier, TopLevelUnitsFixAndReemit)
{
    Simplifier simp(3);
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    simp.addClause({a});
    simp.addClause({~a, b});
    simp.addClause({~b, c});
    for (Var v = 0; v < 3; ++v)
        simp.freeze(v);
    simp.run();
    EXPECT_FALSE(simp.inconsistent());
    EXPECT_EQ(simp.stats().fixedVariables, 3u);
    // The whole chain propagates: three units survive.
    const auto clauses = simp.simplifiedClauses();
    ASSERT_EQ(clauses.size(), 3u);
    for (const auto &clause : clauses)
        EXPECT_EQ(clause.size(), 1u);
}

TEST(Simplifier, ContradictionIsDetected)
{
    Simplifier simp(2);
    const Lit a = mkLit(0), b = mkLit(1);
    simp.addClause({a});
    simp.addClause({~a, b});
    simp.addClause({~a, ~b});
    simp.run();
    EXPECT_TRUE(simp.inconsistent());
}

/** Recorded BVE output on one table3 instance. */
struct EliminationPin
{
    std::size_t modes;
    bool algebraicIndependence;
    std::size_t eliminatedVariables;
    std::size_t simplifiedClauses;
};

TEST(Simplifier, EncodingModelEliminationPinned)
{
    // The Table 3 preprocessing setup: the construction's clauses
    // with the operator bits and the reachable totalizer outputs
    // frozen, no time budget. Any change to what BVE eliminates on
    // the encoding CNFs moves these counts.
    const EliminationPin pins[] = {
        {2, true, 58, 385},    {3, true, 188, 2088},
        {4, true, 280, 10212}, {2, false, 37, 229},
        {3, false, 126, 812},  {4, false, 280, 2053},
    };
    for (const auto &pin : pins) {
        core::EncodingModelOptions options;
        options.modes = pin.modes;
        options.algebraicIndependence = pin.algebraicIndependence;
        options.costCap = enc::bravyiKitaev(pin.modes).totalWeight();
        Solver solver;
        core::EncodingModel model(solver, options);
        const Cnf cnf = snapshotCnf(solver);
        Simplifier simp(cnf.numVars);
        for (const auto &clause : cnf.clauses)
            simp.addClause(clause);
        for (std::size_t s = 0; s < 2 * pin.modes; ++s) {
            for (std::size_t q = 0; q < pin.modes; ++q) {
                simp.freeze(litVar(model.bit1(s, q)));
                simp.freeze(litVar(model.bit2(s, q)));
            }
        }
        const std::size_t outputs =
            std::min(model.numCostInputs(), options.costCap + 1);
        for (std::size_t bound = 0; bound < outputs; ++bound)
            simp.freeze(litVar(model.costAtMostAssumption(bound)));
        simp.run();
        ASSERT_FALSE(simp.inconsistent());
        EXPECT_EQ(simp.stats().eliminatedVariables,
                  pin.eliminatedVariables)
            << "N=" << pin.modes
            << " alg=" << pin.algebraicIndependence;
        EXPECT_EQ(simp.stats().simplifiedClauses,
                  pin.simplifiedClauses)
            << "N=" << pin.modes
            << " alg=" << pin.algebraicIndependence;
    }
}

/** Random 3-SAT instances at mixed clause/variable ratios. */
struct PreprocessParam
{
    int numVars;
    int ratioTimes10;
    bool withFrozen;
};

class SimplifierProperty
    : public ::testing::TestWithParam<PreprocessParam>
{
};

TEST_P(SimplifierProperty, EquivalentToUnsimplifiedSolve)
{
    const auto param = GetParam();
    Rng rng(4200 + param.numVars * 100 + param.ratioTimes10 +
            (param.withFrozen ? 7 : 0));
    const int num_clauses =
        param.numVars * param.ratioTimes10 / 10;

    for (int instance = 0; instance < 25; ++instance) {
        std::vector<std::vector<Lit>> cnf;
        for (int c = 0; c < num_clauses; ++c) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k) {
                const Var var = static_cast<Var>(
                    rng.nextBelow(param.numVars));
                clause.push_back(mkLit(var, rng.nextBool()));
            }
            cnf.push_back(clause);
        }

        // Reference verdict from the unsimplified solver.
        Solver reference;
        for (int v = 0; v < param.numVars; ++v)
            reference.newVar();
        for (const auto &clause : cnf)
            reference.addClause(clause);
        const SolveStatus expected = reference.solve();

        // Simplify, solve the simplified formula, reconstruct.
        Simplifier simp(param.numVars);
        for (const auto &clause : cnf)
            simp.addClause(clause);
        if (param.withFrozen) {
            // Freeze a random half of the variables.
            for (int v = 0; v < param.numVars; ++v) {
                if (rng.nextBool())
                    simp.freeze(v);
            }
        }
        simp.run();

        if (simp.inconsistent()) {
            EXPECT_EQ(expected, SolveStatus::Unsat)
                << "instance " << instance;
            continue;
        }
        Solver solver;
        for (int v = 0; v < param.numVars; ++v)
            solver.newVar();
        bool consistent = true;
        for (const auto &clause : simp.simplifiedClauses())
            consistent = solver.addClause(clause) && consistent;
        const SolveStatus simplified =
            consistent ? solver.solve() : SolveStatus::Unsat;
        EXPECT_EQ(simplified, expected)
            << "instance " << instance;

        if (simplified == SolveStatus::Sat) {
            std::vector<LBool> model(param.numVars);
            for (int v = 0; v < param.numVars; ++v)
                model[v] = solver.modelValue(v);
            simp.reconstruct(model);
            EXPECT_TRUE(modelSatisfies(cnf, model))
                << "instance " << instance
                << ": reconstructed model violates the original "
                   "formula";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SimplifierProperty,
    ::testing::Values(PreprocessParam{8, 30, false},
                      PreprocessParam{8, 43, true},
                      PreprocessParam{12, 40, false},
                      PreprocessParam{12, 45, true},
                      PreprocessParam{16, 43, false},
                      PreprocessParam{16, 50, true},
                      PreprocessParam{20, 42, true}));

} // namespace
} // namespace fermihedral::sat
