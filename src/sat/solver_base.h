/**
 * @file
 * The abstract clause-consumer / solver interface.
 *
 * The encoding model, the Tseitin builder and the totalizer only
 * need "create variables, add clauses, solve, read the model". This
 * interface names exactly that surface so the same constraint
 * construction can target either the plain CDCL engine
 * (sat/solver.h) or the preprocessing portfolio front-end
 * (sat/portfolio.h) without caring which it got.
 *
 * Key invariants:
 *  - Variables are dense 0-based indices; every literal passed to
 *    addClause()/solve() must come from a prior newVar() call on
 *    the same object.
 *  - After solve() returns Sat, modelValue() is defined for every
 *    created variable and satisfies every added clause; after
 *    Unsat the formula (under the given assumptions) has no model;
 *    Unknown is returned only when the Budget ran out: its
 *    conflict limit or deadline passed, or its stop or race flag
 *    was raised.
 *  - Clauses and variables may be added between solve() calls.
 *  - freeze() is a hint, never a behavioural requirement for
 *    correct callers: it marks a variable as part of the caller's
 *    interface (future clauses, assumptions or model reads), which
 *    preprocessing implementations must then not eliminate. The
 *    plain solver ignores it.
 */

#ifndef FERMIHEDRAL_SAT_SOLVER_BASE_H
#define FERMIHEDRAL_SAT_SOLVER_BASE_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "common/timer.h"
#include "sat/types.h"

namespace fermihedral::sat {

/** Outcome of a solve() call. */
enum class SolveStatus { Sat, Unsat, Unknown };

/**
 * Resource limits for one solve() call: the search returns Unknown
 * at the first budget poll where any of them has run out.
 */
struct Budget
{
    /** Maximum number of conflicts (no limit when negative). */
    std::int64_t maxConflicts = -1;
    /**
     * Absolute wall-clock deadline, a Timer::nowSeconds() instant
     * (common/timer.h). kNoDeadline never arrives; an instant
     * already past leaves the call no search time.
     */
    double deadline = kNoDeadline;
    /** The caller's cancellation: stop once the flag reads true. */
    const std::atomic<bool> *stopFlag = nullptr;
    /**
     * The portfolio's race flag, raised by the first racing winner
     * to stop the other instances. Set by PortfolioSolver only.
     */
    const std::atomic<bool> *raceFlag = nullptr;
};

/** Aggregate counters exposed for benchmarks and tests. */
struct SolverStats
{
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learntLiterals = 0;
    std::uint64_t removedClauses = 0;
    /** Copying arena collections and the words they reclaimed. */
    std::uint64_t garbageCollects = 0;
    std::uint64_t reclaimedWords = 0;
    /** Inprocessing rounds and their clause-database effect. */
    std::uint64_t inprocessings = 0;
    std::uint64_t vivifiedClauses = 0;
    std::uint64_t vivifiedLiterals = 0;
    /** Learnt clauses dropped by clearLearnts() (carry-over off). */
    std::uint64_t clearedLearnts = 0;

    SolverStats &operator+=(const SolverStats &other)
    {
        conflicts += other.conflicts;
        decisions += other.decisions;
        propagations += other.propagations;
        restarts += other.restarts;
        learntLiterals += other.learntLiterals;
        removedClauses += other.removedClauses;
        garbageCollects += other.garbageCollects;
        reclaimedWords += other.reclaimedWords;
        inprocessings += other.inprocessings;
        vivifiedClauses += other.vivifiedClauses;
        vivifiedLiterals += other.vivifiedLiterals;
        clearedLearnts += other.clearedLearnts;
        return *this;
    }
};

/** Abstract variable/clause/solve surface (see file comment). */
class SolverBase
{
  public:
    virtual ~SolverBase() = default;

    /** Create a fresh variable and return its index. */
    virtual Var newVar() = 0;

    /** Number of created variables. */
    virtual std::size_t numVars() const = 0;

    /** Number of problem (non-learnt) clauses retained. */
    virtual std::size_t numClauses() const = 0;

    /**
     * Add a clause (disjunction of literals). Returns false when
     * the clause is known to make the formula unsatisfiable.
     */
    virtual bool addClause(std::span<const Lit> literals) = 0;

    bool addClause(std::initializer_list<Lit> literals)
    {
        return addClause(std::span<const Lit>(literals.begin(),
                                              literals.size()));
    }

    /** Convenience for unit / binary / ternary clauses. */
    bool addUnit(Lit a) { return addClause({a}); }
    bool addBinary(Lit a, Lit b) { return addClause({a, b}); }
    bool addTernary(Lit a, Lit b, Lit c)
    {
        return addClause({a, b, c});
    }

    /**
     * Solve under the given assumptions and budget.
     * Unknown means the budget expired (or a stop was requested).
     */
    virtual SolveStatus solve(std::span<const Lit> assumptions = {},
                              const Budget &budget = {}) = 0;

    /** Value of a variable in the last satisfying model. */
    virtual LBool modelValue(Var var) const = 0;

    /** Value of a literal in the last satisfying model. */
    LBool modelValue(Lit lit) const
    {
        const LBool v = modelValue(litVar(lit));
        return litSign(lit) ? -v : v;
    }

    /** Set the initial saved phase of a variable (warm start). */
    virtual void setPolarity(Var var, bool value) = 0;

    /** Raise a variable's branching activity. */
    virtual void boostActivity(Var var, double amount) = 0;

    /**
     * Mark a variable as externally visible: the caller will read
     * its model value, assume it, or mention it in clauses added
     * after the first solve. Preprocessing must not eliminate it.
     * The plain solver ignores the hint.
     */
    virtual void freeze(Var) {}

    /** True once the clause set is known unsatisfiable at level 0. */
    virtual bool inconsistent() const = 0;

    virtual const SolverStats &stats() const = 0;
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_SOLVER_BASE_H
