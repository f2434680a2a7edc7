/**
 * @file
 * Clause-database preprocessing (SatELite-style simplification).
 *
 * Runs the three classic inprocessing techniques the Kissat/CaDiCaL
 * line applies before search, over a plain clause list and an
 * occurrence index:
 *
 *  - top-level unit propagation (satisfied clauses removed, false
 *    literals stripped),
 *  - backward subsumption: a clause C removes every clause D ⊇ C,
 *  - self-subsuming resolution (strengthening): when
 *    D ⊇ (C \ {l}) ∪ {~l}, the literal ~l is removed from D,
 *  - bounded variable elimination (BVE): a variable whose
 *    resolvent set is no larger than the clauses it replaces is
 *    resolved away (pure literals fall out as the zero-resolvent
 *    case).
 *
 * Eliminated variables are recorded on a witness stack (Eén &
 * Biere): for each elimination the clauses containing the positive
 * literal are saved, and reconstruct() replays the stack backwards
 * to extend any model of the simplified formula into a model of the
 * original — required here because EncodingModel::decode() reads
 * every operator variable.
 *
 * Key invariants:
 *  - The simplified formula is equisatisfiable with the input, and
 *    equivalent over the non-eliminated variables: every model of
 *    the simplified clauses extends (via reconstruct()) to a model
 *    of every clause ever added; UNSAT is preserved exactly.
 *  - Frozen variables are never eliminated and never fixed
 *    silently: a frozen variable forced at top level is re-emitted
 *    as a unit clause, so callers may keep adding clauses or
 *    assumptions over frozen variables after simplification.
 *  - reconstruct() only overwrites eliminated/fixed variables; the
 *    values of surviving variables are taken as given.
 *  - run() may be called once per Simplifier; addClause()/freeze()
 *    must happen before it.
 */

#ifndef FERMIHEDRAL_SAT_PREPROCESS_H
#define FERMIHEDRAL_SAT_PREPROCESS_H

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/types.h"

namespace fermihedral::sat {

/** Effort limits for one simplification run. */
struct SimplifierOptions
{
    /**
     * Run bounded variable elimination. Subsumption and
     * self-subsuming resolution always run.
     */
    bool variableElimination = true;

    /** Maximum subsumption+elimination rounds before settling. */
    std::size_t maxRounds = 8;

    /**
     * Stop simplifying once this much wall-clock has elapsed
     * (<= 0 = unlimited). Checked between rounds and periodically
     * inside the subsumption/elimination passes; stopping anywhere
     * is sound because every individual rewrite preserves
     * equisatisfiability and the witness stack on its own.
     */
    double timeBudgetSeconds = -1.0;
};

/** Counters of one simplification run. */
struct SimplifierStats
{
    std::size_t originalClauses = 0;
    std::size_t originalLiterals = 0;
    std::size_t simplifiedClauses = 0;
    std::size_t simplifiedLiterals = 0;
    std::size_t subsumedClauses = 0;
    std::size_t strengthenedLiterals = 0;
    std::size_t eliminatedVariables = 0;
    std::size_t fixedVariables = 0;
    std::size_t resolventsAdded = 0;
    std::size_t rounds = 0;
    /** Wall-clock of the run() call itself. */
    double seconds = 0.0;
};

/** One-shot clause-database simplifier with model reconstruction. */
class Simplifier
{
  public:
    explicit Simplifier(std::size_t num_vars);

    /** Add an input clause (before run()). */
    void addClause(std::span<const Lit> literals);
    void addClause(std::initializer_list<Lit> literals)
    {
        addClause(std::span<const Lit>(literals.begin(),
                                       literals.size()));
    }

    /** Protect a variable from elimination (before run()). */
    void freeze(Var var);

    /** Run the simplification pipeline once. */
    void run(const SimplifierOptions &options = {});

    /** True when the input was refuted at the top level. */
    bool inconsistent() const { return contradiction; }

    /** Number of variables (indices are preserved, never packed). */
    std::size_t numVars() const { return values.size(); }

    /**
     * The simplified clause list: all surviving clauses plus one
     * unit per fixed variable (so a solver loading the result
     * agrees with the top-level assignment). Empty and meaningless
     * when inconsistent().
     */
    std::vector<std::vector<Lit>> simplifiedClauses() const;

    /**
     * True when the variable no longer occurs in the simplified
     * formula and is reconstructed from the witness stack instead.
     * Clauses/assumptions added after simplification must not
     * mention such variables.
     */
    bool isEliminated(Var var) const;

    /**
     * Extend a model of the simplified formula (indexed by the
     * original variable numbering, True/False for every surviving
     * variable) into a model of the original formula by replaying
     * the witness stack. Overwrites only eliminated/fixed entries.
     */
    void reconstruct(std::vector<LBool> &model) const;

    const SimplifierStats &stats() const { return statistics; }

  private:
    struct Clause
    {
        std::vector<Lit> lits;
        std::uint64_t signature = 0;
        bool removed = false;
    };

    /** One elimination record: l plus all clauses containing l. */
    struct Witness
    {
        Lit lit;
        std::vector<std::vector<Lit>> clauses;
    };

    std::vector<Clause> clauses;
    /** occurrences[lit.code]: indices of clauses containing lit. */
    std::vector<std::vector<std::size_t>> occurrences;
    std::vector<LBool> values;
    std::vector<char> frozen;
    std::vector<char> eliminated;
    std::vector<Witness> witnesses;
    std::vector<Var> unitQueue;
    std::vector<std::size_t> subsumptionQueue;
    std::vector<char> queued;
    bool contradiction = false;
    bool ran = false;
    SimplifierStats statistics;

    /** Effort-budget state, valid during run() only. */
    double budgetSeconds = -1.0;
    std::chrono::steady_clock::time_point budgetStart;
    std::uint32_t budgetTick = 0;

    bool overBudget() const;
    bool pollBudget();
    static std::uint64_t signatureOf(std::span<const Lit> literals);
    LBool valueOf(Lit lit) const;
    void enqueueUnit(Lit lit);
    void enqueueSubsumption(std::size_t index);
    void removeClauseAt(std::size_t index);
    void detachLiteral(std::size_t index, Lit lit);
    bool insertClause(std::vector<Lit> lits);
    bool propagateUnits();
    bool subsumptionPass();
    bool strengthenClause(std::size_t index, Lit lit);
    bool eliminationPass(bool &changed);
    bool tryEliminate(Var var);
    static bool resolve(const std::vector<Lit> &pos,
                        const std::vector<Lit> &neg, Var var,
                        std::vector<Lit> &out);
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_PREPROCESS_H
