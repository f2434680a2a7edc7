/**
 * @file
 * A self-contained CDCL SAT solver.
 *
 * This replaces the Kissat/CaDiCaL dependency of the original
 * Fermihedral artifact. The implementation follows the classic
 * MiniSat architecture with the standard modern refinements:
 *
 *  - clause storage in a bump-allocated arena (sat/clause_arena.h):
 *    32-bit clause refs, metadata inlined ahead of the literals,
 *    in-place shrinking, and copying garbage collection when the
 *    learnt-database reduction has retired enough words,
 *  - two-watched-literal propagation with blocker literals, and
 *    dedicated binary watch lists whose watchers carry the implied
 *    literal inline so binary chains never touch the arena,
 *  - first-UIP conflict analysis with clause minimization,
 *  - EVSIDS decision heuristic on an indexed binary heap with lazy
 *    activity rescaling (sat/var_heap.h), plus phase saving,
 *  - Luby-sequence (or geometric) restarts,
 *  - LBD ("glue") guided learnt-clause database reduction,
 *  - incremental solving: clauses may be added between solve()
 *    calls and assumptions are supported, which Algorithm 1's
 *    descent loop uses to tighten the Pauli-weight bound by
 *    asserting a single totalizer output literal per step; learnt
 *    clauses, phases and activities carry over across those calls
 *    (clearLearnts() resets the carried clauses when a caller
 *    wants restart-from-scratch behaviour),
 *  - inprocessing between solves: bounded vivification of the
 *    problem clauses (equivalence-preserving, so retained learnt
 *    clauses remain sound),
 *  - conflict/time budgets so descent steps can time out the same
 *    way the paper's setup bounds each SAT call,
 *  - configurable diversification (decision seed, phase policy,
 *    restart schedule), the hook the portfolio front-end
 *    (sat/portfolio.h) races instances on.
 *
 * Key invariants:
 *  - Variables are dense 0-based indices; every literal passed to
 *    addClause()/solve() must come from a prior newVar() call.
 *  - After solve() returns Sat, modelValue() is defined for every
 *    variable and satisfies every added clause; after Unsat the
 *    formula (under the given assumptions) has no model. Unknown is
 *    returned only when a Budget expired or a stop was requested.
 *  - Clauses and variables may be added between solve() calls;
 *    learnt clauses, saved phases and activities persist, which is
 *    what makes the descent loop's incremental tightening cheap.
 *  - The clause arena may be garbage-collected whenever the solver
 *    is between propagations: ClauseRef values are internal and
 *    never escape. snapshotCnf (sat/dimacs.h) therefore reads the
 *    live problem clauses, never refs.
 *  - inprocess()/clearLearnts() preserve equivalence over all
 *    variables (no elimination): any model of the formula before
 *    the call is a model after it and vice versa.
 *  - A default-constructed config makes the solver a deterministic
 *    function of its clause/solve/inprocess call sequence; any two
 *    Solvers fed the same calls return the same answers and models.
 *  - Compiling with -DFERMIHEDRAL_SOLVER_CHECK (or setting
 *    SolverConfig::selfCheck) runs checkInvariants() at solve,
 *    reduction, collection and inprocessing boundaries; the check
 *    itself is always available and fatal on violation.
 */

#ifndef FERMIHEDRAL_SAT_SOLVER_H
#define FERMIHEDRAL_SAT_SOLVER_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "sat/clause_arena.h"
#include "sat/solver_base.h"
#include "sat/types.h"
#include "sat/var_heap.h"

namespace fermihedral::sat {

/**
 * Search-heuristic configuration. The defaults reproduce the
 * classic MiniSat-style behaviour; the portfolio diversifies
 * instances by varying these knobs.
 */
struct SolverConfig
{
    /** Seed for the solver-local RNG (random branching/phases). */
    std::uint64_t seed = 0;

    /** Probability of a uniformly random branching variable. */
    double randomBranchFreq = 0.0;

    /** Initial saved phase assigned to fresh variables. */
    bool initialPhase = false;

    /** Draw each fresh variable's initial phase from the RNG. */
    bool randomizePhases = false;

    /** Restart schedule family. */
    enum class Restarts { Luby, Geometric };
    Restarts restartSchedule = Restarts::Luby;

    /** Conflicts per restart unit (Luby) / first interval (geom.). */
    std::uint32_t restartBase = 100;

    /** Interval multiplier for the geometric schedule. */
    double restartGrowth = 1.5;

    /** EVSIDS activity decay factor. */
    double varDecay = 0.95;

    /**
     * Run the solver invariant self-checks (watch consistency,
     * arena ref validity, heap order) at search boundaries. Always
     * on when the library is compiled with
     * -DFERMIHEDRAL_SOLVER_CHECK.
     */
    bool selfCheck = false;
};

/**
 * The CDCL solver. Create variables with newVar(), add clauses with
 * addClause(), then call solve(). More clauses may be added after a
 * solve; learnt clauses and heuristic state are kept.
 */
class Solver final : public SolverBase
{
  public:
    explicit Solver(const SolverConfig &config = {});
    Solver(const Solver &) = delete;
    Solver &operator=(const Solver &) = delete;

    /** Create a fresh variable and return its index. */
    Var newVar() override;

    /** Number of created variables. */
    std::size_t numVars() const override { return assigns.size(); }

    /** Number of problem (non-learnt) clauses added and retained. */
    std::size_t numClauses() const override
    {
        return problemClauses.size();
    }

    using SolverBase::addClause;

    /**
     * Add a clause (disjunction of literals). Returns false when
     * the clause makes the formula trivially unsatisfiable.
     * Must not be called while a solve() is in progress.
     */
    bool addClause(std::span<const Lit> literals) override;

    /**
     * Solve under the given assumptions and budget.
     * Unknown means the budget expired first.
     */
    SolveStatus solve(std::span<const Lit> assumptions = {},
                      const Budget &budget = {}) override;

    using SolverBase::modelValue;

    /** Value of a variable in the last satisfying model. */
    LBool modelValue(Var var) const override;

    /**
     * Set the initial saved phase of a variable (warm start). The
     * solver will try this polarity first when branching.
     */
    void setPolarity(Var var, bool value) override;

    /**
     * Raise a variable's branching activity so it is decided before
     * less active ones. Useful to prioritise semantic variables
     * over Tseitin auxiliaries, which then follow by propagation.
     */
    void boostActivity(Var var, double amount) override;

    /**
     * Inprocess the clause database between solve() calls:
     * bounded vivification of the problem clauses (each loses the
     * literals unit propagation proves redundant, which keeps the
     * formula equivalent, so learnt clauses stay sound), and a
     * garbage collection when enough waste accumulated. Returns
     * false when the formula was refuted.
     */
    bool inprocess();

    /**
     * Drop every learnt clause (the carried state of the
     * incremental descent). The next solve() re-derives what it
     * needs — used to measure what carry-over buys, and by callers
     * that want restart-from-scratch semantics.
     */
    void clearLearnts();

    /**
     * The current problem clauses (simplified, possibly shrunk by
     * inprocessing — never learnt clauses) plus one unit per
     * top-level fixed variable. This is the DIMACS export surface:
     * equivalent to the conjunction of every added clause, and
     * stable across garbage collection. An inconsistent solver
     * snapshots as a contradictory unit pair, since the refuting
     * clause itself was never stored.
     */
    std::vector<std::vector<Lit>> problemClausesSnapshot() const;

    /** True once the clause set is known unsatisfiable at level 0. */
    bool inconsistent() const override { return !ok; }

    const SolverStats &stats() const override { return statistics; }

    /** Arena footprint in 32-bit words (live + waste). */
    std::size_t arenaWords() const { return arena.size(); }

    /** Arena words retired but not yet collected. */
    std::size_t arenaWasted() const { return arena.wasted(); }

    /** Problem clauses stored in the binary watch lists. */
    std::size_t numBinaryClauses() const;

    /**
     * Verify the solver's internal invariants: every stored
     * ClauseRef valid and unrelocated, watch lists consistent with
     * the first two literals of every clause (binary watchers
     * carrying the implied literal), heap order and index mapping
     * intact, trail well-formed. Fatal (FatalError) on violation.
     * Runs automatically at search boundaries when selfCheck is
     * set or the library is built with FERMIHEDRAL_SOLVER_CHECK.
     */
    void checkInvariants() const;

  private:
    // --- Clause storage -------------------------------------------------
    ClauseArena arena;

    // --- Watches --------------------------------------------------------
    struct Watcher
    {
        ClauseRef cref;
        Lit blocker;
    };
    /** watches[lit.code]: long clauses to inspect when lit falls. */
    std::vector<std::vector<Watcher>> watches;
    /**
     * binWatches[lit.code]: binary clauses; the blocker IS the
     * other literal, so propagation never dereferences the arena.
     */
    std::vector<std::vector<Watcher>> binWatches;

    void attachClause(ClauseRef ref);
    void detachClause(ClauseRef ref);

    // --- Assignment trail -----------------------------------------------
    std::vector<LBool> assigns;
    std::vector<std::uint32_t> varLevel;
    std::vector<ClauseRef> varReason;
    std::vector<Lit> trail;
    std::vector<std::uint32_t> trailLim;
    std::size_t qhead = 0;

    LBool value(Var var) const { return assigns[var]; }
    LBool value(Lit lit) const
    {
        const LBool v = assigns[litVar(lit)];
        return litSign(lit) ? -v : v;
    }
    std::uint32_t decisionLevel() const
    {
        return static_cast<std::uint32_t>(trailLim.size());
    }

    void uncheckedEnqueue(Lit lit, ClauseRef reason);
    ClauseRef propagate();
    void cancelUntil(std::uint32_t level);
    void newDecisionLevel()
    {
        trailLim.push_back(static_cast<std::uint32_t>(trail.size()));
    }

    // --- Decision heuristic ----------------------------------------------
    VarHeap heap;
    std::vector<char> polarity;
    std::vector<char> seen;

    Lit pickBranchLit();

    // --- Conflict analysis -----------------------------------------------
    std::vector<Lit> learntClause;
    std::vector<Lit> analyzeToClear;
    void analyze(ClauseRef conflict, std::vector<Lit> &out_learnt,
                 std::uint32_t &out_btlevel, std::uint32_t &out_lbd);
    bool litRedundant(Lit lit, std::uint32_t abstract_levels);
    std::uint32_t computeLbd(std::span<const Lit> literals);

    // --- Clause database management ---------------------------------------
    std::vector<ClauseRef> problemClauses;
    std::vector<ClauseRef> learntClauses;
    double claInc = 1.0;
    static constexpr double claDecay = 0.999;
    std::uint64_t maxLearnts = 8192;

    void claBumpActivity(ClauseRef ref);
    void claDecayActivity() { claInc /= claDecay; }
    void reduceDb();
    bool clauseLocked(ClauseRef ref) const;
    void removeClause(ClauseRef ref);

    /**
     * Copying collection: live clauses move to a fresh arena in
     * watcher order, every stored ref is forwarded. Runs when the
     * retired words cross a quarter of the arena.
     */
    void garbageCollectIfNeeded();
    void garbageCollect();

    // --- Inprocessing ------------------------------------------------------
    /** Drop level-0 reasons (facts need none; frees their clauses). */
    void detachLevelZeroReasons();
    bool vivifyPass();
    bool enqueueFactAndPropagate(Lit lit);

    // --- Search ------------------------------------------------------------
    SolverConfig config;
    Rng rng;
    bool ok = true;
    std::vector<Lit> assumptionList;
    std::vector<LBool> model;
    SolverStats statistics;

    SolveStatus search(const Budget &budget);
    std::uint64_t restartLimit(std::uint64_t round) const;
    static std::uint64_t luby(std::uint64_t i);

    /** Push this solve's stat deltas into the metrics registry. */
    void publishTelemetry(const SolverStats &before,
                          SolveStatus status,
                          telemetry::TraceSpan &span) const;

    bool budgetExpired(const Budget &budget,
                       std::uint64_t start_conflicts) const;

    bool selfCheckEnabled() const;
    void maybeCheck() const
    {
        if (selfCheckEnabled())
            checkInvariants();
    }
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_SOLVER_H
