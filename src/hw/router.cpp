#include "hw/router.h"

#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"

namespace fermihedral::hw {

namespace {

/** Upcoming two-qubit gates scored when ranking a SWAP. */
constexpr std::size_t kLookahead = 8;

/** Seed of the tie-break between equally-scored SWAP candidates. */
constexpr std::uint64_t kTieBreakSeed = 0;

/** Counter handles resolved once (same idiom as ServiceMetrics). */
struct RouterMetrics
{
    telemetry::Counter &swaps;
    telemetry::Counter &depth;

    static const RouterMetrics &
    get()
    {
        auto &registry = telemetry::MetricsRegistry::global();
        static const RouterMetrics metrics{
            registry.counter("hw.routed.swaps"),
            registry.counter("hw.routed.depth"),
        };
        return metrics;
    }
};

/**
 * The mutable routing state: wire w sits on physical qubit
 * layout[w]; pos is the inverse permutation. Every physical qubit
 * always holds exactly one wire (wires beyond the logical width
 * are idle ancillas), so SWAPs are total permutation updates.
 */
struct Layout
{
    std::vector<std::uint32_t> layout;
    std::vector<std::uint32_t> pos;

    explicit Layout(std::size_t qubits)
        : layout(qubits), pos(qubits)
    {
        std::iota(layout.begin(), layout.end(), 0);
        std::iota(pos.begin(), pos.end(), 0);
    }

    void
    swapPhysical(std::uint32_t a, std::uint32_t b)
    {
        const std::uint32_t wire_a = pos[a];
        const std::uint32_t wire_b = pos[b];
        std::swap(pos[a], pos[b]);
        layout[wire_a] = b;
        layout[wire_b] = a;
    }
};

/**
 * Lookahead score of a candidate placement: the current gate's
 * endpoint distance plus geometrically-decaying distances of the
 * upcoming CNOTs in the window. Scaled integers keep the comparison
 * exact (and therefore deterministic across platforms).
 */
std::uint64_t
placementScore(const Layout &state, const Topology &topology,
               const std::vector<const circuit::Gate *> &upcoming)
{
    // decay 1/2 per step, fixed point with 16 fractional bits; the
    // window is short enough that no weight reaches zero.
    static_assert(kLookahead < 16);
    std::uint64_t score = 0;
    std::uint64_t weight = std::uint64_t(1) << 16;
    for (const circuit::Gate *gate : upcoming) {
        score += weight * topology.distance(state.layout[gate->qubit0],
                                            state.layout[gate->qubit1]);
        weight >>= 1;
    }
    return score;
}

} // namespace

RoutedCircuit
routeCircuit(const circuit::Circuit &logical,
             const Topology &topology)
{
    const std::size_t qubits = topology.numQubits();
    require(topology.connected(),
            "routeCircuit needs a connected topology");
    require(logical.numQubits() <= qubits, "circuit has ",
            logical.numQubits(), " qubits but the topology only ",
            qubits);

    telemetry::TraceSpan span("hw.route");
    span.arg("qubits", std::uint64_t(qubits));
    span.arg("gates", std::uint64_t(logical.size()));

    RoutedCircuit routed;
    routed.physical = circuit::Circuit(qubits);
    Layout state(qubits);
    routed.initialLayout = state.layout;
    Rng rng(kTieBreakSeed);

    // Upcoming CNOTs per gate position, for the lookahead window.
    const auto &gates = logical.gates();
    std::vector<const circuit::Gate *> upcoming;
    std::vector<std::size_t> next_cnot(gates.size() + 1);
    next_cnot[gates.size()] = gates.size();
    for (std::size_t i = gates.size(); i-- > 0;)
        next_cnot[i] = isTwoQubit(gates[i].kind) ? i
                                                 : next_cnot[i + 1];

    const auto emitSwap = [&](std::uint32_t a, std::uint32_t b) {
        routed.physical.addCnot(a, b);
        routed.physical.addCnot(b, a);
        routed.physical.addCnot(a, b);
        state.swapPhysical(a, b);
        ++routed.stats.swaps;
    };

    for (std::size_t i = 0; i < gates.size(); ++i) {
        const auto &gate = gates[i];
        if (!isTwoQubit(gate.kind)) {
            routed.physical.add(gate.kind,
                                state.layout[gate.qubit0],
                                gate.angle);
            continue;
        }

        // Collect the lookahead window starting at this CNOT.
        upcoming.clear();
        for (std::size_t j = i;
             j < gates.size() &&
             upcoming.size() <= kLookahead;
             j = next_cnot[j + 1])
            upcoming.push_back(&gates[j]);

        while (true) {
            const std::uint32_t pc = state.layout[gate.qubit0];
            const std::uint32_t pt = state.layout[gate.qubit1];
            const std::uint32_t d = topology.distance(pc, pt);
            if (d <= 1)
                break;

            // Candidates: swaps on an edge touching either
            // endpoint that strictly shorten this CNOT. At least
            // one always exists (the next hop of a shortest path),
            // which is what bounds the loop.
            struct Candidate
            {
                std::uint32_t a, b;
                std::uint64_t score;
            };
            std::vector<Candidate> best;
            std::uint64_t best_score = UINT64_MAX;
            const auto consider = [&](std::uint32_t from,
                                      std::uint32_t to) {
                state.swapPhysical(from, to);
                const std::uint32_t d_new = topology.distance(
                    state.layout[gate.qubit0],
                    state.layout[gate.qubit1]);
                if (d_new < d) {
                    const std::uint64_t score =
                        placementScore(state, topology, upcoming);
                    if (score < best_score) {
                        best.clear();
                        best_score = score;
                    }
                    if (score == best_score)
                        best.push_back({from, to, score});
                }
                state.swapPhysical(from, to); // undo
            };
            for (const std::uint32_t nb : topology.neighbors(pc))
                consider(pc, nb);
            for (const std::uint32_t nb : topology.neighbors(pt))
                if (nb != pc)
                    consider(pt, nb);
            require(!best.empty(),
                    "router found no distance-decreasing swap");
            const Candidate &chosen =
                best.size() == 1
                    ? best.front()
                    : best[rng.nextBelow(best.size())];
            emitSwap(chosen.a, chosen.b);
        }
        routed.physical.addCnot(state.layout[gate.qubit0],
                                state.layout[gate.qubit1]);
    }

    routed.finalLayout = state.layout;
    const auto costs = routed.physical.costs();
    routed.stats.twoQubitGates = costs.cnotGates;
    routed.stats.singleQubitGates = costs.singleQubitGates;
    routed.stats.depth = costs.depth;

    span.arg("swaps", std::uint64_t(routed.stats.swaps));
    span.arg("depth", std::uint64_t(routed.stats.depth));
    const auto &metrics = RouterMetrics::get();
    metrics.swaps.add(routed.stats.swaps);
    metrics.depth.add(routed.stats.depth);
    return routed;
}

} // namespace fermihedral::hw
