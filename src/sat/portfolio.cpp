#include "sat/portfolio.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace fermihedral::sat {

namespace {

/**
 * Skip upfront preprocessing for formulas staged with more than
 * this many clauses. On totalizer-dominated instances past a few
 * thousand clauses the occurrence index alone outweighs the
 * descent's improving phase.
 */
constexpr std::size_t kPreprocessMaxClauses = 4000;

/**
 * Wall-clock cap on the upfront simplification run. The paper's
 * time-to-best clock starts before the first model; without a cap
 * the simplifier can spend longer on a dense instance than the
 * whole improving phase takes.
 */
constexpr double kPreprocessBudgetSeconds = 0.05;

} // namespace

// --------------------------------------------------------------------
// Diversification
// --------------------------------------------------------------------

SolverConfig
PortfolioSolver::instanceConfig(std::size_t index)
{
    SolverConfig config;
    if (index == 0)
        return config; // the stock solver: plain-Solver-identical
    config.seed = 0x9e3779b97f4a7c15ull * (index + 1);
    switch (index % 4) {
    case 1:
        // Opposite default phase, geometric restarts.
        config.initialPhase = true;
        config.restartSchedule = SolverConfig::Restarts::Geometric;
        config.restartBase = 100;
        config.restartGrowth = 1.5;
        break;
    case 2:
        // Randomized phases with occasional random decisions and
        // rapid Luby restarts.
        config.randomizePhases = true;
        config.randomBranchFreq = 0.02;
        config.restartBase = 50;
        break;
    case 3:
        // Slow activity decay (more breadth), long restarts.
        config.varDecay = 0.99;
        config.restartSchedule = SolverConfig::Restarts::Geometric;
        config.restartBase = 300;
        config.restartGrowth = 2.0;
        break;
    default:
        // Stock heuristics at a different seed and restart pace.
        config.randomBranchFreq = 0.01;
        config.restartBase = 150;
        break;
    }
    return config;
}

// --------------------------------------------------------------------
// PortfolioSolver
// --------------------------------------------------------------------

PortfolioSolver::PortfolioSolver(const EngineConfig &config)
    : config(config),
      instanceCount(0),
      threadCount(ThreadPool::resolveThreadCount(
          static_cast<std::int64_t>(config.threads)))
{
    instanceCount = config.portfolioInstances > 0
                        ? config.portfolioInstances
                        : threadCount;
    require(instanceCount >= 1, "portfolio needs an instance");
}

PortfolioSolver::~PortfolioSolver() = default;

Var
PortfolioSolver::newVar()
{
    const Var var = static_cast<Var>(varCount);
    ++varCount;
    frozenVars.push_back(0);
    stagedUnits.push_back(LBool::Undef);
    if (built) {
        for (auto &instance : instances)
            instance->newVar();
    }
    return var;
}

std::size_t
PortfolioSolver::numClauses() const
{
    return built ? instances.front()->numClauses()
                 : pendingClauses.size();
}

void
PortfolioSolver::checkIncrementalLits(
    std::span<const Lit> literals) const
{
    for (const Lit lit : literals) {
        const Var var = litVar(lit);
        require(var >= 0 &&
                    static_cast<std::size_t>(var) < varCount,
                "literal references unknown variable");
        // Variables created after the build postdate the
        // simplifier and can never have been eliminated.
        require(!simplifier ||
                    static_cast<std::size_t>(var) >=
                        simplifier->numVars() ||
                    !simplifier->isEliminated(var),
                "variable ", var,
                " was eliminated by preprocessing; freeze() "
                "variables used after the first solve");
    }
}

bool
PortfolioSolver::addClause(std::span<const Lit> literals)
{
    if (!built) {
        for (const Lit lit : literals) {
            require(litVar(lit) >= 0 &&
                        static_cast<std::size_t>(litVar(lit)) <
                            varCount,
                    "clause references unknown variable");
        }
        if (literals.empty())
            stagedUnsat = true;
        // Track staged unit clauses so directly contradictory
        // units report the conflict immediately (the Cnf::loadInto
        // contract); deeper conflicts surface at the first solve.
        if (literals.size() == 1) {
            const Var var = litVar(literals[0]);
            const LBool value = litSign(literals[0])
                                    ? LBool::False
                                    : LBool::True;
            if (stagedUnits[var] == -value)
                stagedUnsat = true;
            else
                stagedUnits[var] = value;
        }
        pendingClauses.emplace_back(literals.begin(),
                                    literals.end());
        return !stagedUnsat;
    }
    checkIncrementalLits(literals);
    // Instances hold the same problem clauses but have learnt
    // different units, so level-0 unsatisfiability can surface in
    // any one of them first.
    bool result = true;
    for (auto &instance : instances)
        result = instance->addClause(literals) && result;
    return result;
}

void
PortfolioSolver::setPolarity(Var var, bool value)
{
    require(static_cast<std::size_t>(var) < varCount,
            "setPolarity on unknown variable");
    if (!built) {
        pendingPolarity.emplace_back(var, value);
        return;
    }
    for (auto &instance : instances)
        instance->setPolarity(var, value);
}

void
PortfolioSolver::boostActivity(Var var, double amount)
{
    require(static_cast<std::size_t>(var) < varCount,
            "boostActivity on unknown variable");
    if (!built) {
        pendingActivity.emplace_back(var, amount);
        return;
    }
    for (auto &instance : instances)
        instance->boostActivity(var, amount);
}

void
PortfolioSolver::freeze(Var var)
{
    require(static_cast<std::size_t>(var) < varCount,
            "freeze on unknown variable");
    // After the build the formula is already simplified; freezing
    // is only meaningful for variables that survived, which are
    // exactly the ones still usable anyway.
    if (!built)
        frozenVars[var] = 1;
}

void
PortfolioSolver::build(bool skip_preprocess, double deadline)
{
    require(!built, "portfolio built twice");
    telemetry::TraceSpan span("portfolio.build");
    if (span.active()) {
        span.arg("instances", instanceCount);
        span.arg("clauses", pendingClauses.size());
    }

    std::vector<std::vector<Lit>> load;
    if (config.preprocess &&
        pendingClauses.size() <= kPreprocessMaxClauses &&
        !skip_preprocess && !stagedUnsat) {
        simplifier = std::make_unique<Simplifier>(varCount);
        for (const auto &clause : pendingClauses)
            simplifier->addClause(clause);
        for (std::size_t var = 0; var < varCount; ++var) {
            if (frozenVars[var])
                simplifier->freeze(static_cast<Var>(var));
        }
        simplifier->run(std::min(
            deadlineIn(kPreprocessBudgetSeconds), deadline));
        portfolio.simplifier = simplifier->stats();
        if (simplifier->inconsistent())
            topLevelUnsat = true;
        else
            load = simplifier->simplifiedClauses();
    } else {
        if (stagedUnsat)
            topLevelUnsat = true;
        load = std::move(pendingClauses);
        pendingClauses.clear();
    }

    // Instances are independent, so construction and clause
    // loading fan out over the pool — loading a large instance N
    // times serially would multiply the first solve's construction
    // wall-clock by N.
    pool = std::make_unique<ThreadPool>(
        std::min(threadCount, instanceCount));
    instances.resize(instanceCount);
    pool->forEach(instanceCount, [&](std::size_t i) {
        auto instance =
            std::make_unique<Solver>(instanceConfig(i));
        for (std::size_t var = 0; var < varCount; ++var)
            instance->newVar();
        for (const auto &[var, value] : pendingPolarity)
            instance->setPolarity(var, value);
        for (const auto &[var, amount] : pendingActivity)
            instance->boostActivity(var, amount);
        if (!topLevelUnsat) {
            for (const auto &clause : load)
                instance->addClause(clause);
        }
        instances[i] = std::move(instance);
    });

    pendingClauses.clear();
    pendingClauses.shrink_to_fit();
    pendingPolarity.clear();
    pendingActivity.clear();
    built = true;
}

bool
PortfolioSolver::inprocess()
{
    if (!built || topLevelUnsat)
        return !inconsistent();
    // Each instance inprocesses its own database; the pass is a
    // per-instance deterministic function of its state, so fanning
    // out over the pool cannot perturb deterministic arbitration.
    telemetry::TraceSpan span("portfolio.inprocess");
    pool->forEach(instanceCount, [&](std::size_t i) {
        instances[i]->inprocess();
    });
    return !inconsistent();
}

void
PortfolioSolver::clearLearnts()
{
    if (!built)
        return;
    for (auto &instance : instances)
        instance->clearLearnts();
}

SolveStatus
PortfolioSolver::solve(std::span<const Lit> assumptions,
                       const Budget &budget)
{
    if (!built)
        build(/*skip_preprocess=*/!assumptions.empty(),
              budget.deadline);
    telemetry::TraceSpan span("portfolio.solve");
    if (span.active()) {
        span.arg("instances", instanceCount);
        span.arg("racing", !config.deterministic);
    }
    ++portfolio.solves;
    if (topLevelUnsat) {
        ++portfolio.unsatAnswers;
        portfolio.lastWinner = 0;
        return SolveStatus::Unsat;
    }
    checkIncrementalLits(assumptions);

    SolveStatus status = SolveStatus::Unknown;
    std::size_t winner_index = 0;
    if (instanceCount == 1) {
        status = instances[0]->solve(assumptions, budget);
    } else {
        std::vector<SolveStatus> results(instanceCount,
                                         SolveStatus::Unknown);
        // One race flag: the first racing winner raises it for
        // everyone. Deterministic mode never cancels, so its
        // instances see only the caller's own budget.
        std::atomic<bool> race{false};
        std::atomic<int> first_decisive{-1};

        pool->forEach(instanceCount, [&](std::size_t i) {
            // One span per instance, recorded on the worker thread
            // that ran it: a --trace timeline shows the race the
            // arbitration (racing or deterministic) chose from.
            telemetry::TraceSpan instance_span("portfolio.instance");
            if (instance_span.active())
                instance_span.arg("instance", i);
            // Every instance shares the caller's deadline, so with
            // fewer threads than instances the stragglers only get
            // what the earlier finishers left over, and the call
            // never overshoots it by a factor of the portfolio size.
            Budget local = budget;
            if (!config.deterministic)
                local.raceFlag = &race;
            const SolveStatus result =
                instances[i]->solve(assumptions, local);
            results[i] = result;
            if (instance_span.active()) {
                instance_span.arg(
                    "status",
                    result == SolveStatus::Sat
                        ? "sat"
                        : result == SolveStatus::Unsat ? "unsat"
                                                       : "unknown");
            }
            if (result == SolveStatus::Unknown)
                return;
            // Deterministic mode cancels nobody — not even
            // higher-index instances a lower decisive index has
            // already beaten. Cancellation would make the loser's
            // persistent heuristic state (learnt clauses, phases)
            // depend on the thread schedule, and that state feeds
            // the NEXT incremental solve, where the loser may be
            // the winner: bit-identity across thread counts holds
            // precisely because every instance's trajectory is
            // schedule-independent.
            if (config.deterministic)
                return;
            int expected = -1;
            if (first_decisive.compare_exchange_strong(
                    expected, static_cast<int>(i))) {
                race.store(true, std::memory_order_relaxed);
            }
        });

        if (config.deterministic) {
            // Fixed arbitration: the decisive instance with the
            // lowest index wins, making the outcome (and model) a
            // pure function of the call sequence and budgets.
            bool found = false;
            for (std::size_t i = 0; i < instanceCount; ++i) {
                if (results[i] != SolveStatus::Unknown) {
                    winner_index = i;
                    status = results[i];
                    found = true;
                    break;
                }
            }
            if (!found)
                status = SolveStatus::Unknown;
        } else {
            const int first = first_decisive.load();
            if (first >= 0) {
                winner_index = static_cast<std::size_t>(first);
                status = results[winner_index];
            }
        }
    }

    portfolio.lastWinner = winner_index;
    if (span.active())
        span.arg("winner", winner_index);
    switch (status) {
    case SolveStatus::Sat:
        ++portfolio.satAnswers;
        publishModel(*instances[winner_index]);
        break;
    case SolveStatus::Unsat:
        ++portfolio.unsatAnswers;
        break;
    case SolveStatus::Unknown:
        ++portfolio.unknownAnswers;
        break;
    }
    return status;
}

void
PortfolioSolver::publishModel(const Solver &winner)
{
    fullModel.resize(varCount, LBool::Undef);
    for (std::size_t var = 0; var < varCount; ++var)
        fullModel[var] = winner.modelValue(static_cast<Var>(var));
    // Eliminated variables carry arbitrary values in the winner's
    // model (they occur in no clause there); the witness stack
    // overwrites them with values satisfying the original formula.
    if (simplifier)
        simplifier->reconstruct(fullModel);
}

LBool
PortfolioSolver::modelValue(Var var) const
{
    if (static_cast<std::size_t>(var) >= fullModel.size())
        return LBool::Undef;
    return fullModel[var];
}

bool
PortfolioSolver::inconsistent() const
{
    if (!built)
        return stagedUnsat;
    return topLevelUnsat ||
           std::any_of(instances.begin(), instances.end(),
                       [](const auto &instance) {
                           return instance->inconsistent();
                       });
}

const SolverStats &
PortfolioSolver::stats() const
{
    aggregateCache = SolverStats{};
    for (const auto &instance : instances)
        aggregateCache += instance->stats();
    return aggregateCache;
}

const PortfolioStats &
PortfolioSolver::portfolioStats() const
{
    portfolio.aggregate = stats();
    portfolio.winner =
        built && portfolio.lastWinner < instances.size()
            ? instances[portfolio.lastWinner]->stats()
            : SolverStats{};
    return portfolio;
}

} // namespace fermihedral::sat
