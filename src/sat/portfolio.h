/**
 * @file
 * Parallel portfolio SAT engine with clause-database preprocessing.
 *
 * PortfolioSolver presents the SolverBase surface but, underneath,
 * stages the incoming formula, simplifies it once
 * (sat/preprocess.h) and then races N diversified CDCL instances
 * (different EVSIDS seeds, phase policies and restart schedules)
 * over a shared ThreadPool on every solve() call. Instances share
 * no clauses: each learns only from its own search, and the one
 * thing they share is the race flag that cancels the losers of a
 * race.
 *
 * Two arbitration modes:
 *  - racing (deterministic = false): first Sat/Unsat wins and all
 *    other instances are stopped through the shared race flag. The
 *    winning instance — and hence the model — may differ run to
 *    run.
 *  - deterministic (the default): nobody is cancelled, and the
 *    winner is the decisive instance with the lowest index. Every
 *    instance is then an isolated deterministic machine, so
 *    results are bit-identical for every thread count whenever
 *    budgets do not bind (conflict budgets, or wall-clock limits
 *    generous enough that no instance times out).
 *
 * Key invariants:
 *  - Variable numbering is shared: newVar()/addClause() broadcast
 *    to every instance in call order, so literal meanings agree
 *    across the portfolio and with the caller.
 *  - Preprocessing runs once, on the first solve() call, and only
 *    when that call has no assumptions (incremental assumptions
 *    present => preprocessing is skipped entirely) and when the
 *    staged formula is small enough to pay for it (the size
 *    ceiling and wall-clock cap are constants in portfolio.cpp).
 *    Frozen variables survive it; clauses and assumptions
 *    arriving after the first solve must mention only frozen or
 *    surviving variables (enforced).
 *  - After Sat, modelValue() is defined for every variable: the
 *    winner's model is extended over eliminated variables with the
 *    simplifier's witness stack before it is published.
 *  - With portfolioInstances = 1, deterministic = true and
 *    preprocessing off, solve behaviour is bit-identical to a
 *    plain Solver fed the same calls.
 *  - Budget.deadline bounds the whole solve() call, not each
 *    instance: every instance gets the caller's deadline, so with
 *    fewer threads than instances the stragglers only get whatever
 *    the earlier finishers left over. It also caps the first
 *    call's preprocessing. Conflict budgets stay per instance.
 *  - Racing instances stop on the caller's Budget.stopFlag and on
 *    the portfolio's own race flag (Budget.raceFlag); no thread
 *    relays one into the other.
 */

#ifndef FERMIHEDRAL_SAT_PORTFOLIO_H
#define FERMIHEDRAL_SAT_PORTFOLIO_H

#include <memory>
#include <vector>

#include "common/parallel.h"
#include "sat/engine_config.h"
#include "sat/preprocess.h"
#include "sat/solver.h"
#include "sat/solver_base.h"
#include "sat/types.h"

namespace fermihedral::sat {

/** Counters describing the portfolio's work so far. */
struct PortfolioStats
{
    /** Sum of every instance's counters. */
    SolverStats aggregate;

    /** Counters of the last winning instance. */
    SolverStats winner;

    /** Preprocessing result (all zero when preprocessing is off). */
    SimplifierStats simplifier;

    /** Index of the instance that decided the last solve. */
    std::size_t lastWinner = 0;

    /** solve() calls so far. */
    std::size_t solves = 0;

    /** Solves decided by Sat / Unsat / neither. */
    std::size_t satAnswers = 0;
    std::size_t unsatAnswers = 0;
    std::size_t unknownAnswers = 0;
};

/** The portfolio front-end (see file docs). */
class PortfolioSolver final : public SolverBase
{
  public:
    /**
     * Reads config.threads, portfolioInstances, deterministic and
     * preprocess; the descent-level fields are ignored here.
     */
    explicit PortfolioSolver(const EngineConfig &config = {});
    ~PortfolioSolver() override;

    Var newVar() override;
    std::size_t numVars() const override { return varCount; }
    std::size_t numClauses() const override;

    using SolverBase::addClause;
    bool addClause(std::span<const Lit> literals) override;

    SolveStatus solve(std::span<const Lit> assumptions = {},
                      const Budget &budget = {}) override;

    /**
     * Inprocess every instance's clause database between solve()
     * calls (Solver::inprocess). Returns false when any instance
     * refuted the formula. Runs in parallel over the pool;
     * instance order and results stay deterministic (each
     * instance's trajectory is independent).
     */
    bool inprocess();

    /**
     * Drop every instance's learnt clauses (Solver::clearLearnts):
     * the carry-over reset used to measure what incremental reuse
     * buys across the descent's bound-tightening steps.
     */
    void clearLearnts();

    using SolverBase::modelValue;
    LBool modelValue(Var var) const override;

    void setPolarity(Var var, bool value) override;
    void boostActivity(Var var, double amount) override;
    void freeze(Var var) override;

    bool inconsistent() const override;
    const SolverStats &stats() const override;

    /** Number of instances that will race (>= 1). */
    std::size_t numInstances() const { return instanceCount; }

    /** Threads used per solve (>= 1). */
    std::size_t numThreads() const { return threadCount; }

    const PortfolioStats &portfolioStats() const;

    /**
     * The diversified configuration instance `index` runs with.
     * Exposed so tests can pin down the diversification contract.
     */
    static SolverConfig instanceConfig(std::size_t index);

  private:
    EngineConfig config;
    std::size_t instanceCount;
    std::size_t threadCount;

    // Staged formula (before the instances are built).
    std::size_t varCount = 0;
    std::vector<std::vector<Lit>> pendingClauses;
    std::vector<std::pair<Var, bool>> pendingPolarity;
    std::vector<std::pair<Var, double>> pendingActivity;
    std::vector<char> frozenVars;
    /** Values forced by staged unit clauses (conflict detection). */
    std::vector<LBool> stagedUnits;
    bool stagedUnsat = false;

    // Built state.
    bool built = false;
    std::unique_ptr<Simplifier> simplifier;
    std::vector<std::unique_ptr<Solver>> instances;
    std::unique_ptr<ThreadPool> pool;
    std::vector<LBool> fullModel;
    bool topLevelUnsat = false;

    mutable PortfolioStats portfolio;
    mutable SolverStats aggregateCache;

    void build(bool skip_preprocess, double deadline);
    void checkIncrementalLits(std::span<const Lit> literals) const;
    void publishModel(const Solver &winner);
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_PORTFOLIO_H
