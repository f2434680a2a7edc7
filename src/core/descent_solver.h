/**
 * @file
 * Algorithm 1: descend on the Pauli-weight bound with a SAT solver.
 *
 * The solver starts from the Bravyi-Kitaev cost (the paper's w0),
 * warm-starts the CDCL phases at the BK solution, and repeatedly
 * asks for an encoding strictly cheaper than the best found so far,
 * tightening the totalizer bound by one unit clause per round. The
 * loop ends with a proof of optimality (UNSAT) or when the per-step
 * or total budget expires (the paper's timeout termination).
 *
 * Three configurations correspond to the paper's experiments:
 *  - Full SAT: all constraints, Ham.-independent or -dependent cost;
 *  - SAT w/o Alg.: algebraicIndependence = false (Sec. 4.1);
 *  - SAT + Anl.: Ham.-independent solve here, then the annealing
 *    pairing of Algorithm 2 (annealing.h).
 *
 * Key invariants:
 *  - solve() always returns a valid encoding: the Bravyi-Kitaev
 *    baseline is feasible by construction, so even a zero budget
 *    yields DescentResult::encoding with cost == baselineCost.
 *  - result.cost is exact under the run's objective and equals
 *    costOf(result.encoding); provedOptimal is set only on a true
 *    UNSAT at cost - 1 (never on a timeout).
 *  - The cost trajectory is strictly decreasing: each SAT model
 *    accepted during descent is strictly cheaper than the last.
 *  - enumerateOptimal() may only be called after solve(); calling
 *    it first is a fatal diagnostic (FatalError). The returned
 *    encodings are pairwise distinct operator assignments at
 *    cost <= the best found.
 */

#ifndef FERMIHEDRAL_CORE_DESCENT_SOLVER_H
#define FERMIHEDRAL_CORE_DESCENT_SOLVER_H

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "core/encoding_model.h"
#include "encodings/encoding.h"
#include "fermion/operators.h"
#include "sat/portfolio.h"

namespace fermihedral::core {

/**
 * One per-bound progress report, delivered after every SAT step of
 * the descent loop (improving models, the final UNSAT refutation
 * and budget-expired steps alike). Successive reports have strictly
 * decreasing `bound` and non-decreasing `elapsedSeconds`.
 */
struct DescentProgress
{
    /** The bound this step asked for (best - 1). */
    std::size_t bound = 0;

    /** Cheapest feasible cost known after the step. */
    std::size_t bestCost = 0;

    /** SAT calls made so far, this step included. */
    std::size_t satCalls = 0;

    /** Wall-clock since solve() started (monotonic clock). */
    double elapsedSeconds = 0.0;

    /** The step's answer: Sat = improved, Unsat = proved optimal. */
    sat::SolveStatus status = sat::SolveStatus::Unknown;

    /** Aggregate solver conflicts across the run so far. */
    std::uint64_t conflicts = 0;
};

/** Why solve() stopped descending. */
enum class DescentTermination
{
    /** Optimality proved (UNSAT at best - 1, or the bound hit 0). */
    Completed,
    /** The step/total wall budget expired (anytime answer). */
    BudgetExhausted,
    /** The caller's stop flag was raised mid-descent. */
    Cancelled,
};

/**
 * Options for one descent run. The SAT-engine knobs come from
 * sat::EngineConfig: the portfolio reads the first four, afterStep()
 * reads carryLearnts and inprocess.
 */
struct DescentOptions : sat::EngineConfig
{
    /** Keep the power-set algebraic independence clauses. */
    bool algebraicIndependence = true;

    /** Keep the vacuum X/Y-pairing clauses. */
    bool vacuumPreservation = true;

    /** Initialise solver phases from the baseline encoding. */
    bool warmStart = true;

    /** Wall-clock budget for each individual SAT call (seconds). */
    double stepTimeoutSeconds = 30.0;

    /** Wall-clock budget for the whole descent (seconds). */
    double totalTimeoutSeconds = 300.0;

    /**
     * Cooperative cancellation: when non-null and set, the descent
     * stops at the next SAT budget poll and solve() returns its
     * best-so-far result with DescentTermination::Cancelled. The
     * flag is composed into every sat::Budget the loop issues, so
     * it reaches both portfolio arbitration modes. Checked with
     * relaxed loads only — attaching a never-fired flag does not
     * perturb deterministic-mode bit-identity.
     */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Override the initial bound (default: Bravyi-Kitaev cost). */
    std::optional<std::size_t> initialBound;

    /**
     * Extra starting candidate (e.g.\ a SAT+Anl. solution for the
     * Hamiltonian-dependent search). Used as warm start and initial
     * bound when it satisfies the active constraints and costs less
     * than the baseline.
     */
    std::optional<enc::FermionEncoding> seedEncoding;

    /**
     * Called after every SAT step with the descent's state (see
     * DescentProgress). Runs on the descent thread; an execution
     * observer only — it cannot steer the search, and it must not
     * re-enter the solver. Empty = no reports.
     */
    std::function<void(const DescentProgress &)> progress;
};

/** Result of a descent run. */
struct DescentResult
{
    /** Best encoding found (the baseline when SAT never improved). */
    enc::FermionEncoding encoding;

    /** Cost of `encoding` under the run's objective. */
    std::size_t cost = 0;

    /** Cost of the Bravyi-Kitaev baseline for reference. */
    std::size_t baselineCost = 0;

    /** The final decrement was refuted: `cost` is proved optimal. */
    bool provedOptimal = false;

    /** Why the descent stopped (budget vs cancel vs proof). */
    DescentTermination termination = DescentTermination::Completed;

    /** Number of SAT solve() calls made. */
    std::size_t satCalls = 0;

    /** Wall-clock split between building and solving the model. */
    double constructSeconds = 0.0;
    double solveSeconds = 0.0;

    /** Variable/clause counts of the constructed instance. */
    std::size_t numVars = 0;
    std::size_t numClauses = 0;

    /** (cost, elapsed seconds) after each improving model. */
    std::vector<std::pair<std::size_t, double>> trajectory;

    /**
     * SAT-engine counters for the whole run: per-instance search
     * work (propagations/conflicts/learnt literals), preprocessing
     * effect (eliminated variables, subsumed clauses, simplified
     * instance size) and portfolio arbitration outcomes.
     */
    sat::PortfolioStats satStats;
};

/** Searches optimal encodings for one mode count. */
class DescentSolver
{
  public:
    /** Hamiltonian-independent objective (Sec. 3.6). */
    DescentSolver(std::size_t modes, const DescentOptions &options);

    /** Hamiltonian-dependent objective (Sec. 3.7). */
    DescentSolver(const fermion::FermionHamiltonian &hamiltonian,
                  const DescentOptions &options);

    /** Run Algorithm 1. */
    DescentResult solve();

    /**
     * After solve(), enumerate up to `count` further distinct
     * encodings at cost <= the best found (used for Figure 4's
     * sampling of optimal encodings). Returns fewer when the space
     * is exhausted or the budget expires.
     */
    std::vector<enc::FermionEncoding> enumerateOptimal(
        std::size_t count, double timeout_seconds);

  private:
    std::size_t modes;
    DescentOptions options;
    std::vector<fermion::WeightedSubset> structure;

    std::unique_ptr<sat::PortfolioSolver> solver;
    std::unique_ptr<EncodingModel> model;
    std::optional<DescentResult> lastResult;

    /** Conflict count at the last inprocessing run (gate state). */
    std::size_t inprocessedConflicts = 0;

    std::unique_ptr<sat::PortfolioSolver> makeSolver() const;

    /** Carry-over / inprocessing maintenance after a SAT step. */
    void afterStep(std::size_t sat_calls);

    std::size_t baselineCost(const enc::FermionEncoding &bk) const;
};

} // namespace fermihedral::core

#endif // FERMIHEDRAL_CORE_DESCENT_SOLVER_H
