/**
 * @file
 * The SAT engine's knobs, declared once.
 *
 * core::DescentOptions and api::CompilationRequest inherit from
 * EngineConfig, so every layer names a knob the same way and a
 * layer hands its knobs down with one slicing assignment
 * (`static_cast<sat::EngineConfig &>(options) = request;`).
 * Which layer reads each field:
 *  - threads, portfolioInstances, deterministic, preprocess:
 *    sat::PortfolioSolver's constructor and build();
 *  - carryLearnts, inprocess: core::DescentSolver::afterStep(),
 *    between the descent's bound-tightening steps.
 *
 * Every other engine effort limit (preprocessing budget and size
 * ceiling, inprocessing cadence, clause-sharing ceilings,
 * vivification limits) has exactly one value and lives as a named
 * constant next to the code that reads it.
 *
 * Key invariants:
 *  - The defaults reproduce the descent's search bit for bit:
 *    one thread, one instance per thread, deterministic
 *    arbitration, preprocessing, carry-over and inprocessing on.
 *  - None of these fields is part of a request's cache identity:
 *    they change how fast an answer is found, not which problem is
 *    being solved.
 *  - preprocess and inprocess stay only until the engine-knob
 *    ablation in ROADMAP.md shows whether the Simplifier and
 *    between-step inprocessing pay for themselves.
 */

#ifndef FERMIHEDRAL_SAT_ENGINE_CONFIG_H
#define FERMIHEDRAL_SAT_ENGINE_CONFIG_H

#include <cstddef>

namespace fermihedral::sat {

/** The SAT engine's knobs (see file docs for their readers). */
struct EngineConfig
{
    /** Threads racing each SAT call (0 = hardware concurrency). */
    std::size_t threads = 1;

    /**
     * Diversified solver instances in the portfolio (0 = one per
     * thread). With more instances than threads the pool
     * multiplexes them; instance 0 always runs the stock
     * SolverConfig, so a 1-instance portfolio searches exactly like
     * a plain Solver.
     */
    std::size_t portfolioInstances = 0;

    /**
     * Fixed winner arbitration (lowest decisive instance index, no
     * cancellation, no clause sharing): results are then
     * bit-identical for every thread count as long as no budget
     * binds. Racing mode (false) is faster — the first decisive
     * instance wins and cancels the rest, learnt clauses are
     * shared — but the tie-break between equally good models may
     * differ run to run.
     */
    bool deterministic = true;

    /** Simplify the clause database before the first solve. */
    bool preprocess = true;

    /**
     * Keep each instance's learnt clauses across the descent's
     * bound-tightening steps. The totalizer bound only ever
     * tightens, so clauses learnt at a looser bound stay sound at
     * every tighter one. Off = Solver::clearLearnts() after every
     * SAT call, the restart-from-scratch baseline that measures
     * what carry-over buys.
     */
    bool carryLearnts = true;

    /**
     * Inprocess the clause databases between descent steps
     * (subsumption + vivification, Solver::inprocess): each
     * permanent bound unit lets the simplifier strip satisfied
     * clauses before the next, harder SAT call.
     */
    bool inprocess = true;
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_ENGINE_CONFIG_H
