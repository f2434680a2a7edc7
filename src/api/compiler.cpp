#include "api/compiler.h"

#include "api/strategy_registry.h"
#include "common/logging.h"
#include "common/timer.h"

namespace fermihedral::api {

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::Auto: return "auto";
      case Objective::TotalWeight: return "total-weight";
      case Objective::HamiltonianWeight: return "hamiltonian-weight";
      case Objective::RoutedCost: return "routed-cost";
    }
    panic("unhandled Objective value ",
          static_cast<int>(objective));
}

const char *
resultStatusName(ResultStatus status)
{
    switch (status) {
      case ResultStatus::Ok: return "ok";
      case ResultStatus::DeadlineExceeded:
          return "deadline-exceeded";
      case ResultStatus::Cancelled: return "cancelled";
      case ResultStatus::Shed: return "shed";
      case ResultStatus::Error: return "error";
    }
    panic("unhandled ResultStatus value ",
          static_cast<int>(status));
}

namespace {

/** Why the request's explicit objective lacks its input, or "". */
std::string
objectiveDiagnostic(const CompilationRequest &request)
{
    if (request.objective == Objective::HamiltonianWeight &&
        !request.hamiltonian)
        return "objective 'hamiltonian-weight' needs a Hamiltonian";
    if (request.objective == Objective::RoutedCost &&
        !request.topology)
        return "objective 'routed-cost' needs a topology";
    return "";
}

} // namespace

Objective
CompilationRequest::resolvedObjective() const
{
    if (objective == Objective::Auto) {
        if (topology)
            return Objective::RoutedCost;
        return hamiltonian ? Objective::HamiltonianWeight
                           : Objective::TotalWeight;
    }
    if (const std::string why = objectiveDiagnostic(*this);
        !why.empty())
        fatal(why);
    return objective;
}

std::string
requestDiagnostic(const CompilationRequest &request)
{
    if (!strategyRegistered(request.strategy))
        return unknownStrategyMessage(request.strategy);
    const std::size_t modes = request.resolvedModes();
    if (modes == 0)
        return "CompilationRequest needs modes > 0 or a Hamiltonian";
    if (std::string why = objectiveDiagnostic(request); !why.empty())
        return why;
    if (request.topology) {
        const hw::Topology &topology = *request.topology;
        if (!topology.connected())
            return "topology '" + topology.spec() +
                   "' is not connected";
        if (topology.numQubits() < modes)
            return "topology '" + topology.spec() + "' has " +
                   std::to_string(topology.numQubits()) +
                   " qubits but the problem needs " +
                   std::to_string(modes);
    }
    return makeStrategy(request.strategy)->diagnostic(request);
}

CompilationResult
Compiler::assemble(const CompilationRequest &request,
                   const SearchOutcome &outcome)
{
    Timer timer;
    CompilationResult result;
    result.encoding = outcome.encoding;
    result.cost = outcome.cost;
    result.baselineCost = outcome.baselineCost;
    result.annealedCost = outcome.annealedCost;
    result.provedOptimal = outcome.provedOptimal;
    result.satCalls = outcome.satCalls;
    result.status = outcome.status;
    result.statusMessage = outcome.statusMessage;
    result.strategy = request.strategy;
    result.objective = request.resolvedObjective();
    result.validation = enc::validateEncoding(result.encoding);
    if (request.hamiltonian) {
        result.qubitHamiltonian =
            enc::mapToQubits(*request.hamiltonian, result.encoding);
        result.measurementGroups =
            pauli::groupQubitWiseCommuting(result.qubitHamiltonian);
    }
    result.mappingSeconds = timer.seconds();
    return result;
}

CompilationResult
Compiler::compile(const CompilationRequest &request) const
{
    if (const std::string why = requestDiagnostic(request);
        !why.empty())
        fatal(why);
    const auto strategy = makeStrategy(request.strategy);
    Timer timer;
    const SearchOutcome outcome = strategy->search(
        request, request.deadlineFrom(Timer::nowSeconds()));
    const double search_seconds = timer.seconds();
    CompilationResult result = assemble(request, outcome);
    result.searchSeconds = search_seconds;
    return result;
}

} // namespace fermihedral::api
