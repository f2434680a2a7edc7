#include "api/strategy_registry.h"

#include <map>
#include <mutex>

#include "circuit/pauli_compiler.h"
#include "common/logging.h"
#include "common/suggest.h"
#include "common/timer.h"
#include "core/annealing.h"
#include "core/descent_solver.h"
#include "encodings/linear.h"
#include "encodings/ternary_tree.h"
#include "hw/routed_cost.h"
#include "hw/router.h"

namespace fermihedral::api {

namespace {

/** Objective value of an encoding under the request's objective. */
std::size_t
objectiveValue(const CompilationRequest &request,
               const enc::FermionEncoding &encoding)
{
    switch (request.resolvedObjective()) {
      case Objective::HamiltonianWeight:
        return enc::hamiltonianPauliWeight(*request.hamiltonian,
                                           encoding);
      case Objective::RoutedCost:
        return request.hamiltonian
                   ? hw::routedCostEstimate(*request.hamiltonian,
                                            encoding,
                                            *request.topology)
                   : hw::routedCostEstimate(encoding,
                                            *request.topology);
      default:
        return encoding.totalWeight();
    }
}

/** Shared baseline: Bravyi-Kitaev under the request's objective. */
std::size_t
baselineValue(const CompilationRequest &request)
{
    return objectiveValue(
        request, enc::bravyiKitaev(request.resolvedModes()));
}

/**
 * Map a descent's termination to the result status. A budget that
 * ran out on its own is a normal anytime answer (Ok); only the
 * caller-visible limits (deadline, cancellation) are reported.
 */
ResultStatus
statusFor(core::DescentTermination termination, double deadline)
{
    if (termination == core::DescentTermination::Cancelled)
        return ResultStatus::Cancelled;
    if (termination == core::DescentTermination::BudgetExhausted &&
        Timer::nowSeconds() >= deadline)
        return ResultStatus::DeadlineExceeded;
    return ResultStatus::Ok;
}

const char *
statusDetail(ResultStatus status)
{
    if (status == ResultStatus::Cancelled)
        return "cancelled mid-search; best-so-far encoding returned";
    if (status == ResultStatus::DeadlineExceeded)
        return "deadline exceeded; best-so-far encoding returned";
    return "";
}

/**
 * Degrade a Hamiltonian-dependent pipeline that was cut short after
 * its independent stage: keep the cheaper of the stage's encoding
 * and the Bravyi-Kitaev baseline under the real (Hamiltonian)
 * objective. Both are valid, so a degraded answer always is.
 */
SearchOutcome
degradeAfterIndependent(const CompilationRequest &request,
                        const core::DescentResult &indep,
                        ResultStatus status)
{
    SearchOutcome outcome;
    outcome.baselineCost = baselineValue(request);
    const std::size_t indep_cost =
        objectiveValue(request, indep.encoding);
    if (indep_cost <= outcome.baselineCost) {
        outcome.encoding = indep.encoding;
        outcome.cost = indep_cost;
    } else {
        outcome.encoding =
            enc::bravyiKitaev(request.resolvedModes());
        outcome.cost = outcome.baselineCost;
    }
    outcome.satCalls = indep.satCalls;
    outcome.status = status;
    outcome.statusMessage = statusDetail(status);
    return outcome;
}

/**
 * Selection metric of the routed strategies: the actual routed
 * two-qubit gate count of the one-step Trotter circuit when a
 * Hamiltonian is present (compile and router defaults identical to
 * bench/topology_routing, so the bench measures exactly what the
 * strategy optimized), the hw/routed_cost.h estimator otherwise.
 */
std::size_t
routedSelectionMetric(const CompilationRequest &request,
                      const enc::FermionEncoding &encoding)
{
    const hw::Topology &topology = *request.topology;
    if (!request.hamiltonian)
        return hw::routedCostEstimate(encoding, topology);
    const auto mapped =
        enc::mapToQubits(*request.hamiltonian, encoding);
    const auto logical = circuit::compileTrotter(mapped, 1.0);
    return hw::routeCircuit(logical, topology)
        .stats.twoQubitGates;
}

/** Why a routed strategy cannot serve `request`, or "". */
std::string
routedDiagnostic(const CompilationRequest &request,
                 const std::string &name)
{
    if (!request.topology)
        return "strategy '" + name + "' needs a topology in the "
               "CompilationRequest";
    if (request.resolvedObjective() != Objective::RoutedCost)
        return "strategy '" + name + "' requires the routed-cost "
               "objective (set a topology and leave the objective "
               "on Auto)";
    return "";
}

/** A closed-form baseline wrapped as a strategy. */
class ClosedFormStrategy final : public EncodingStrategy
{
  public:
    using Builder = enc::FermionEncoding (*)(std::size_t);

    explicit ClosedFormStrategy(Builder builder) : builder(builder) {}

    SearchOutcome
    search(const CompilationRequest &request,
           double) const override
    {
        SearchOutcome outcome;
        outcome.encoding = builder(request.resolvedModes());
        outcome.cost = objectiveValue(request, outcome.encoding);
        outcome.baselineCost = baselineValue(request);
        return outcome;
    }

  private:
    Builder builder;
};

/** DescentOptions shared by every SAT-backed strategy. */
core::DescentOptions
descentOptions(const CompilationRequest &request,
               bool algebraic_independence)
{
    core::DescentOptions options;
    static_cast<sat::EngineConfig &>(options) = request;
    options.algebraicIndependence = algebraic_independence;
    options.vacuumPreservation = request.vacuumPreservation;
    options.stepTimeoutSeconds = request.stepTimeoutSeconds;
    options.totalTimeoutSeconds = request.totalTimeoutSeconds;
    options.progress = request.progress;
    options.stopFlag = request.cancellation.flag();
    return options;
}

/**
 * `request` as the weight-based SAT search sees it: no topology,
 * and the weight objective that search actually minimises (the
 * Hamiltonian's weight when there is one, total weight otherwise).
 */
CompilationRequest
weightRequest(const CompilationRequest &request)
{
    CompilationRequest weight = request;
    weight.topology.reset();
    weight.objective = request.hamiltonian
                           ? Objective::HamiltonianWeight
                           : Objective::TotalWeight;
    return weight;
}

/**
 * Run `inner` under the weight objective its search actually
 * minimises, then re-score the outcome under the request's
 * routed-cost objective. This is how the weight-based SAT
 * strategies stay usable as routed baselines: the encoding is the
 * weight search's, only the reported costs change. The
 * weight-specific provenance (annealedCost, provedOptimal) is
 * dropped — it would misreport under the re-scored objective.
 */
SearchOutcome
rescoreUnderRoutedCost(const CompilationRequest &request,
                       const EncodingStrategy &inner,
                       double deadline)
{
    SearchOutcome outcome =
        inner.search(weightRequest(request), deadline);
    outcome.cost = objectiveValue(request, outcome.encoding);
    outcome.baselineCost = baselineValue(request);
    outcome.annealedCost = 0;
    outcome.provedOptimal = false;
    return outcome;
}

/**
 * Algorithm 1 descent. With a Hamiltonian-dependent objective this
 * runs the paper's full pipeline: Hamiltonian-independent solve on
 * half the budget, Algorithm 2 annealing, then the dependent solve
 * seeded with the annealed encoding (never worse than SAT+Anl.).
 * Under a routed-cost objective the weight search runs unchanged
 * and the outcome is re-scored (the weight-optimal baseline of the
 * topology benches).
 */
class SatStrategy final : public EncodingStrategy
{
  public:
    explicit SatStrategy(bool algebraic_independence)
        : algebraicIndependence(algebraic_independence)
    {
    }

    SearchOutcome
    search(const CompilationRequest &request,
           double deadline) const override
    {
        if (request.resolvedObjective() == Objective::RoutedCost)
            return rescoreUnderRoutedCost(request, *this, deadline);
        const bool with_alg =
            algebraicIndependence && request.algebraicIndependence;
        SearchOutcome outcome;
        if (request.resolvedObjective() == Objective::TotalWeight) {
            core::DescentSolver solver(
                request.resolvedModes(),
                descentOptions(request, with_alg));
            const auto result = solver.solve(deadline);
            outcome.encoding = result.encoding;
            outcome.cost = result.cost;
            outcome.baselineCost = result.baselineCost;
            outcome.provedOptimal = result.provedOptimal;
            outcome.satCalls = result.satCalls;
            outcome.status = statusFor(result.termination, deadline);
            outcome.statusMessage = statusDetail(outcome.status);
            return outcome;
        }

        // The whole pipeline shares request.totalTimeoutSeconds:
        // half for the independent solve, whatever actually
        // remains for the seeded dependent solve (an early
        // optimality proof hands its leftover budget on). The
        // deadline additionally bounds every stage and
        // short-circuits the pipeline down the degradation ladder.
        const Timer timer;
        const auto &h = *request.hamiltonian;
        auto indep_options = descentOptions(request, with_alg);
        indep_options.stepTimeoutSeconds /= 2.0;
        indep_options.totalTimeoutSeconds /= 2.0;
        core::DescentSolver indep_solver(h.modes(), indep_options);
        const auto indep = indep_solver.solve(deadline);
        if (indep.termination ==
            core::DescentTermination::Cancelled)
            return degradeAfterIndependent(
                request, indep, ResultStatus::Cancelled);
        if (Timer::nowSeconds() >= deadline)
            return degradeAfterIndependent(
                request, indep, ResultStatus::DeadlineExceeded);
        const auto annealed =
            core::annealPairing(indep.encoding, h);

        auto full_options = descentOptions(request, with_alg);
        full_options.totalTimeoutSeconds =
            request.totalTimeoutSeconds - timer.seconds();
        full_options.seedEncoding = annealed.encoding;
        core::DescentSolver full_solver(h, full_options);
        const auto full = full_solver.solve(deadline);

        outcome.baselineCost = full.baselineCost;
        outcome.annealedCost = annealed.finalCost;
        outcome.provedOptimal = full.provedOptimal;
        outcome.satCalls = indep.satCalls + full.satCalls;
        if (full.cost <= annealed.finalCost) {
            outcome.encoding = full.encoding;
            outcome.cost = full.cost;
        } else {
            outcome.encoding = annealed.encoding;
            outcome.cost = annealed.finalCost;
        }
        outcome.status = statusFor(full.termination, deadline);
        outcome.statusMessage = statusDetail(outcome.status);
        return outcome;
    }

  private:
    bool algebraicIndependence;
};

/**
 * The scalable path: Hamiltonian-independent descent, then
 * Algorithm 2 pairing. Both the SAT solution and the Bravyi-Kitaev
 * baseline are annealed and the cheaper pairing kept (annealing
 * never worsens its own seed), as the Table 5 reproduction does.
 */
class SatAnnealingStrategy final : public EncodingStrategy
{
  public:
    std::string
    diagnostic(const CompilationRequest &request) const override
    {
        if (!request.hamiltonian)
            return "strategy 'sat+annealing' needs a Hamiltonian: "
                   "Algorithm 2 minimises the Hamiltonian-dependent "
                   "Pauli weight";
        // The annealed pairing depends on the Hamiltonian, so a
        // total-weight objective would both misreport cost and
        // break the service's cache identity (which only hashes
        // the Eq. 14 structure for Hamiltonian-dependent
        // objectives).
        if (request.resolvedObjective() == Objective::TotalWeight)
            return "strategy 'sat+annealing' requires the "
                   "hamiltonian-weight objective (leave the "
                   "objective on Auto)";
        return "";
    }

    SearchOutcome
    search(const CompilationRequest &request,
           double deadline) const override
    {
        if (request.resolvedObjective() == Objective::RoutedCost)
            return rescoreUnderRoutedCost(request, *this, deadline);
        const auto &h = *request.hamiltonian;

        core::DescentSolver solver(
            h.modes(),
            descentOptions(request, request.algebraicIndependence));
        const auto indep = solver.solve(deadline);
        if (indep.termination ==
            core::DescentTermination::Cancelled)
            return degradeAfterIndependent(
                request, indep, ResultStatus::Cancelled);
        if (Timer::nowSeconds() >= deadline)
            return degradeAfterIndependent(
                request, indep, ResultStatus::DeadlineExceeded);

        const auto annealed_sat =
            core::annealPairing(indep.encoding, h);
        const auto annealed_bk = core::annealPairing(
            enc::bravyiKitaev(h.modes()), h);
        const auto &best =
            annealed_sat.finalCost <= annealed_bk.finalCost
                ? annealed_sat
                : annealed_bk;

        SearchOutcome outcome;
        outcome.encoding = best.encoding;
        outcome.cost = best.finalCost;
        outcome.annealedCost = best.finalCost;
        outcome.baselineCost = baselineValue(request);
        outcome.satCalls = indep.satCalls;
        return outcome;
    }
};

/**
 * Weight-optimal SAT search followed by topology-aware placement:
 * the searched encoding's qubit labels are re-placed by
 * hw::optimizePlacement and the better-routing of {searched,
 * re-placed} is kept, so the result never routes worse than the
 * plain `sat` strategy's encoding from the same search.
 */
class SatRoutedStrategy final : public EncodingStrategy
{
  public:
    std::string
    diagnostic(const CompilationRequest &request) const override
    {
        return routedDiagnostic(request, "sat-routed");
    }

    SearchOutcome
    search(const CompilationRequest &request,
           double deadline) const override
    {
        SearchOutcome outcome =
            SatStrategy(true).search(weightRequest(request), deadline);

        const auto placed = hw::optimizePlacement(
            outcome.encoding, *request.topology,
            request.hamiltonian ? &*request.hamiltonian : nullptr);
        if (routedSelectionMetric(request, placed) <=
            routedSelectionMetric(request, outcome.encoding))
            outcome.encoding = placed;

        outcome.cost = objectiveValue(request, outcome.encoding);
        outcome.baselineCost = baselineValue(request);
        outcome.annealedCost = 0;
        outcome.provedOptimal = false;
        return outcome;
    }
};

/**
 * Rescoring selection: route every closed-form baseline plus the
 * weight-optimal SAT encoding (each also in its re-placed variant)
 * and return whichever routes best. Because the SAT encoding is
 * itself a candidate, the pick can never route worse than the
 * weight-optimal baseline; because the closed forms are always
 * available, a deadline or cancellation that truncates the SAT
 * search still leaves a full candidate set (the status reports the
 * truncation).
 */
class PickRoutedStrategy final : public EncodingStrategy
{
  public:
    std::string
    diagnostic(const CompilationRequest &request) const override
    {
        return routedDiagnostic(request, "pick-routed");
    }

    SearchOutcome
    search(const CompilationRequest &request,
           double deadline) const override
    {
        const fermion::FermionHamiltonian *h =
            request.hamiltonian ? &*request.hamiltonian : nullptr;
        const std::size_t modes = request.resolvedModes();

        const SearchOutcome sat =
            SatStrategy(true).search(weightRequest(request), deadline);

        std::vector<enc::FermionEncoding> candidates;
        for (const auto builder :
             {enc::jordanWigner, enc::bravyiKitaev, enc::parity,
              enc::ternaryTree})
            candidates.push_back(builder(modes));
        candidates.push_back(sat.encoding);
        const std::size_t base_count = candidates.size();
        for (std::size_t i = 0; i < base_count; ++i)
            candidates.push_back(hw::optimizePlacement(
                candidates[i], *request.topology, h));

        // Ties keep the earliest candidate, so selection is
        // deterministic in the fixed candidate order.
        std::size_t best = 0;
        std::size_t best_metric = SIZE_MAX;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const std::size_t metric =
                routedSelectionMetric(request, candidates[i]);
            if (metric < best_metric) {
                best_metric = metric;
                best = i;
            }
        }

        SearchOutcome outcome;
        outcome.encoding = candidates[best];
        outcome.cost = objectiveValue(request, outcome.encoding);
        outcome.baselineCost = baselineValue(request);
        outcome.satCalls = sat.satCalls;
        outcome.status = sat.status;
        outcome.statusMessage = sat.statusMessage;
        return outcome;
    }
};

struct Registry
{
    std::mutex mutex;
    std::map<std::string, StrategyFactory> factories;
};

Registry &
registry()
{
    static Registry instance;
    static const bool builtins_registered = [] {
        auto closed = [](const char *name,
                         ClosedFormStrategy::Builder builder) {
            instance.factories.emplace(name, [builder] {
                return std::make_unique<ClosedFormStrategy>(builder);
            });
        };
        closed("jordan-wigner", enc::jordanWigner);
        closed("bravyi-kitaev", enc::bravyiKitaev);
        closed("parity", enc::parity);
        closed("ternary-tree", enc::ternaryTree);
        instance.factories.emplace("sat", [] {
            return std::make_unique<SatStrategy>(true);
        });
        instance.factories.emplace("sat-noalg", [] {
            return std::make_unique<SatStrategy>(false);
        });
        instance.factories.emplace("sat+annealing", [] {
            return std::make_unique<SatAnnealingStrategy>();
        });
        instance.factories.emplace("sat-routed", [] {
            return std::make_unique<SatRoutedStrategy>();
        });
        instance.factories.emplace("pick-routed", [] {
            return std::make_unique<PickRoutedStrategy>();
        });
        return true;
    }();
    (void)builtins_registered;
    return instance;
}

} // namespace

void
registerStrategy(const std::string &name, StrategyFactory factory)
{
    require(static_cast<bool>(factory),
            "registerStrategy: null factory for '", name, "'");
    Registry &r = registry();
    std::lock_guard lock(r.mutex);
    if (!r.factories.emplace(name, std::move(factory)).second)
        fatal("encoding strategy '", name, "' is already registered");
}

bool
strategyRegistered(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard lock(r.mutex);
    return r.factories.count(name) > 0;
}

std::unique_ptr<EncodingStrategy>
makeStrategy(const std::string &name)
{
    Registry &r = registry();
    StrategyFactory factory;
    {
        std::lock_guard lock(r.mutex);
        const auto it = r.factories.find(name);
        if (it != r.factories.end())
            factory = it->second;
    }
    if (!factory)
        fatal(unknownStrategyMessage(name));
    return factory();
}

std::string
unknownStrategyMessage(const std::string &name)
{
    std::string message = "unknown encoding strategy '" + name + "'";
    if (const auto nearest =
            suggestNearest(name, registeredStrategyNames()))
        message += " (did you mean '" + *nearest + "'?)";
    return message;
}

std::vector<std::string>
registeredStrategyNames()
{
    Registry &r = registry();
    std::lock_guard lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &[name, factory] : r.factories)
        names.push_back(name);
    return names; // std::map iteration is already sorted
}

SearchOutcome
baselineOutcome(const CompilationRequest &request,
                ResultStatus status, std::string message)
{
    SearchOutcome outcome;
    outcome.encoding =
        enc::bravyiKitaev(request.resolvedModes());
    outcome.cost = objectiveValue(request, outcome.encoding);
    outcome.baselineCost = outcome.cost;
    outcome.status = status;
    outcome.statusMessage = std::move(message);
    return outcome;
}

} // namespace fermihedral::api
