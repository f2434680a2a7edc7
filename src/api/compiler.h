/**
 * @file
 * The unified compilation facade: one public entry point for the
 * whole Fermihedral pipeline (problem spec -> encoding search ->
 * qubit Hamiltonian -> measurement grouping).
 *
 * A CompilationRequest names a problem (bare mode count or a
 * FermionHamiltonian), an encoding strategy from the registry
 * (api/strategy_registry.h), an objective, the Section 3.1
 * constraint toggles and the solve budgets. Compiler::compile()
 * resolves the strategy, runs the search, and — when a Hamiltonian
 * is present — maps it to a qubit PauliSum and groups the terms
 * into qubit-wise commuting measurement families. Everything the
 * examples and benches previously wired by hand is behind this one
 * call; CompilerService (api/service.h) layers caching and async
 * batching on top.
 *
 * Key invariants:
 *  - compile() is deterministic: equal requests (with
 *    deterministic = true and budgets that do not bind) produce
 *    equal CompilationResults, which is what makes the service's
 *    content-addressed cache sound.
 *  - result.cost always equals the resolved objective re-evaluated
 *    on result.encoding, and qubitHamiltonian/measurementGroups
 *    are pure functions of (request.hamiltonian, encoding).
 *  - Unknown strategy or objective combinations are fatal
 *    diagnostics (FatalError), never silent fallbacks.
 */

#ifndef FERMIHEDRAL_API_COMPILER_H
#define FERMIHEDRAL_API_COMPILER_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/cancellation.h"
#include "common/timer.h"
#include "core/descent_solver.h"
#include "encodings/encoding.h"
#include "fermion/operators.h"
#include "hw/topology.h"
#include "pauli/commuting_groups.h"
#include "pauli/pauli_sum.h"
#include "sat/engine_config.h"

namespace fermihedral::api {

/** What the encoding search minimises. */
enum class Objective
{
    /**
     * Pick automatically: RoutedCost when the request carries a
     * hardware topology, else HamiltonianWeight when it carries a
     * Hamiltonian, TotalWeight otherwise.
     */
    Auto,
    /** Hamiltonian-independent total Pauli weight (Sec. 3.6). */
    TotalWeight,
    /** Eq. 14 Hamiltonian-dependent Pauli weight (Sec. 3.7). */
    HamiltonianWeight,
    /**
     * Connectivity-aware estimated two-qubit gate cost on the
     * request's topology (hw/routed_cost.h); requires `topology`.
     */
    RoutedCost,
};

/** Printable name of a resolved objective. */
const char *objectiveName(Objective objective);

/**
 * How a compilation ended. Everything except Error and Shed still
 * carries a valid encoding (the degradation ladder: best-so-far SAT
 * model, else the closed-form Bravyi-Kitaev baseline), so callers
 * can serve degraded answers instead of failing.
 */
enum class ResultStatus
{
    /** Full-fidelity result (the only status the caches store). */
    Ok,
    /** The request's deadline expired; best-so-far returned. */
    DeadlineExceeded,
    /** The caller's CancellationToken fired; best-so-far returned. */
    Cancelled,
    /** Rejected by admission control; no search ran, no encoding. */
    Shed,
    /** A post-validation failure; statusMessage has the detail. */
    Error,
};

/** Printable name of a result status. */
const char *resultStatusName(ResultStatus status);

/**
 * One compilation problem: spec, strategy, constraints, budgets.
 * The SAT-engine knobs come from sat::EngineConfig; like the
 * budgets they are execution knobs, NOT part of the cache identity.
 */
struct CompilationRequest : sat::EngineConfig
{
    /** Fermionic mode count (ignored when `hamiltonian` is set). */
    std::size_t modes = 0;

    /** The problem Hamiltonian (enables mapping + measurement). */
    std::optional<fermion::FermionHamiltonian> hamiltonian;

    /**
     * Hardware connectivity the encoding should target. Setting it
     * resolves an Auto objective to RoutedCost (and is required by
     * RoutedCost and the sat-routed / pick-routed strategies).
     * Problem identity, not an execution knob: it IS part of the
     * cache identity whenever the resolved objective consumes it.
     */
    std::optional<hw::Topology> topology;

    /** Registered strategy name (see api/strategy_registry.h). */
    std::string strategy = "sat";

    /** Search objective; Auto resolves from the problem spec. */
    Objective objective = Objective::Auto;

    /** Keep the power-set algebraic independence clauses. */
    bool algebraicIndependence = true;

    /** Keep the vacuum X/Y-pairing clauses. */
    bool vacuumPreservation = true;

    /** Wall-clock budget for each individual SAT call (seconds). */
    double stepTimeoutSeconds = 15.0;

    /** Wall-clock budget for the whole search (seconds). */
    double totalTimeoutSeconds = 45.0;

    /**
     * Wall-clock deadline for the whole request (<= 0 = none). The
     * deadline bounds every stage and the step and total budgets;
     * past it the pipeline degrades to its best-so-far encoding
     * with ResultStatus::DeadlineExceeded instead of running on.
     * Under a CompilerService the clock starts at submit(), so time
     * queued counts against it. An execution knob like the budgets:
     * NOT part of the cache identity.
     */
    double deadlineSeconds = 0.0;

    /**
     * Caller-ownable cancel switch (see api/cancellation.h). Keep a
     * copy and requestCancel() from any thread; the search stops at
     * the next budget poll and returns best-so-far with
     * ResultStatus::Cancelled. An execution knob: NOT part of the
     * cache identity.
     */
    CancellationToken cancellation;

    /**
     * Per-bound progress observer forwarded to every descent the
     * strategy runs (see core::DescentProgress). An execution knob
     * like the budgets: NOT part of the request's cache identity —
     * two requests differing only here hit the same cache entry.
     */
    std::function<void(const core::DescentProgress &)> progress;

    /** Mode count the search runs at (Hamiltonian wins). */
    std::size_t resolvedModes() const
    {
        return hamiltonian ? hamiltonian->modes() : modes;
    }

    /**
     * The objective after Auto resolution (fatal when an explicit
     * objective lacks its Hamiltonian or topology, the check
     * requestDiagnostic makes first).
     */
    Objective resolvedObjective() const;

    /**
     * The deadline as an instant (common/timer.h) for a request
     * whose clock started at `start`: start + deadlineSeconds, or
     * kNoDeadline when deadlineSeconds <= 0.
     */
    double deadlineFrom(double start) const
    {
        return deadlineSeconds > 0.0 ? start + deadlineSeconds
                                     : kNoDeadline;
    }
};

/**
 * Why `request` cannot compile, or "" when it can: its strategy is
 * not registered, it names no modes, its explicit objective lacks
 * the Hamiltonian or topology it needs, its topology is
 * disconnected or narrower than the problem, or its strategy cannot
 * serve it (EncodingStrategy::diagnostic). The one check behind
 * Compiler::compile, CompilerService and tryBuildRequest
 * (api/model_spec.h).
 */
std::string requestDiagnostic(const CompilationRequest &request);

/**
 * What an EncodingStrategy returns: the encoding plus the search
 * provenance the facade folds into the CompilationResult.
 */
struct SearchOutcome
{
    enc::FermionEncoding encoding;

    /** Objective value of `encoding`. */
    std::size_t cost = 0;

    /** Objective value of the Bravyi-Kitaev baseline. */
    std::size_t baselineCost = 0;

    /**
     * Objective value after the Algorithm 2 annealing stage, when
     * the strategy ran one (0 otherwise).
     */
    std::size_t annealedCost = 0;

    /** The search proved `cost` optimal (UNSAT at cost - 1). */
    bool provedOptimal = false;

    /** SAT solve() calls made (0 for closed-form strategies). */
    std::size_t satCalls = 0;

    /**
     * Transport metadata, not provenance: how the search ended.
     * Never serialized — caches only ever store Ok outcomes, so a
     * parsed outcome's default Ok is correct by construction.
     */
    ResultStatus status = ResultStatus::Ok;

    /** Human-readable detail for non-Ok statuses. */
    std::string statusMessage;
};

/** The full output of one compilation. */
struct CompilationResult
{
    /** The chosen Fermion-to-qubit encoding. */
    enc::FermionEncoding encoding;

    /**
     * The problem Hamiltonian mapped through `encoding` (empty sum
     * when the request carried no Hamiltonian).
     */
    pauli::PauliSum qubitHamiltonian;

    /**
     * Measurement plan: the qubit Hamiltonian's terms partitioned
     * into qubit-wise commuting families (one basis rotation each).
     */
    std::vector<pauli::CommutingGroup> measurementGroups;

    // --- cost -------------------------------------------------
    /** Objective value of `encoding`. */
    std::size_t cost = 0;
    /** Objective value of the Bravyi-Kitaev baseline. */
    std::size_t baselineCost = 0;
    /** Post-annealing objective value (0 when not annealed). */
    std::size_t annealedCost = 0;
    /** `cost` is proved optimal. */
    bool provedOptimal = false;

    // --- provenance -------------------------------------------
    /** Strategy that produced the encoding. */
    std::string strategy;
    /** Resolved objective the search minimised. */
    Objective objective = Objective::TotalWeight;
    /** SAT solve() calls made (0 = no SAT involved). */
    std::size_t satCalls = 0;
    /** Constraint checks re-evaluated on `encoding`. */
    enc::EncodingValidation validation;

    // --- run stats (not part of the serialized identity) ------
    /** Wall-clock seconds spent in the encoding search. */
    double searchSeconds = 0.0;
    /** Wall-clock seconds spent mapping + grouping. */
    double mappingSeconds = 0.0;
    /** The result came from a CompilerService cache hit. */
    bool fromCache = false;
    /** The result shared another in-flight request's search. */
    bool coalesced = false;
    /**
     * How the compilation ended (see ResultStatus). Non-Ok results
     * other than Shed/Error still carry a valid encoding; they are
     * never cached.
     */
    ResultStatus status = ResultStatus::Ok;
    /** Human-readable detail for non-Ok statuses. */
    std::string statusMessage;
};

/**
 * The facade: resolves the strategy by name and runs the pipeline
 * end to end. Stateless and cheap to construct; for caching and
 * async submission use CompilerService (api/service.h).
 */
class Compiler
{
  public:
    /** Run the full pipeline for one request. */
    CompilationResult compile(const CompilationRequest &request) const;

    /**
     * Rebuild the Hamiltonian-dependent parts of a result (qubit
     * Hamiltonian, measurement groups, validation) from a search
     * outcome — the deterministic step shared by fresh compiles
     * and cache hits.
     */
    static CompilationResult assemble(
        const CompilationRequest &request,
        const SearchOutcome &outcome);
};

} // namespace fermihedral::api

#endif // FERMIHEDRAL_API_COMPILER_H
