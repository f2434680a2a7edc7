/**
 * @file
 * Deterministic SWAP routing: lower a logical circuit::Circuit onto
 * a hw::Topology so that every CNOT acts on an edge. The pass walks
 * the gate list in order, tracks the wire->physical-qubit layout,
 * and when a CNOT's endpoints are not adjacent inserts SWAPs
 * (3 CNOTs each) chosen by a greedy distance-decreasing rule with
 * a lookahead score over the upcoming two-qubit gates.
 *
 * Key invariants:
 *  - The routed circuit implements the same unitary as the input up
 *    to the final wire permutation: reading physical qubit
 *    finalLayout[w] at the end is reading logical wire w (the
 *    router fuzz test proves this against the statevector
 *    simulator).
 *  - Every CNOT in the routed circuit (including SWAP expansions)
 *    acts on a topology edge.
 *  - Routing is deterministic: equal (circuit, topology) always
 *    produce identical gate lists. The lookahead window and the
 *    seed of the tie-break RNG between equally-scored SWAP
 *    candidates are constants in router.cpp.
 *  - Every inserted SWAP strictly decreases the current CNOT's
 *    endpoint distance, so routing always terminates and
 *    stats.twoQubitGates == input CNOTs + 3 * stats.swaps.
 */

#ifndef FERMIHEDRAL_HW_ROUTER_H
#define FERMIHEDRAL_HW_ROUTER_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "hw/topology.h"

namespace fermihedral::hw {

/** Cost metrics of a routed circuit. */
struct RoutedStats
{
    /** SWAPs inserted (each expands to 3 CNOTs). */
    std::size_t swaps = 0;
    /** CNOTs in the routed circuit (originals + SWAP expansion). */
    std::size_t twoQubitGates = 0;
    std::size_t singleQubitGates = 0;
    /** ASAP depth of the routed circuit. */
    std::size_t depth = 0;
};

/** The routed circuit plus the wire permutation it ends in. */
struct RoutedCircuit
{
    /** Gate list over topology.numQubits() physical qubits. */
    circuit::Circuit physical;

    /**
     * initialLayout[w] / finalLayout[w]: the physical qubit holding
     * wire w before / after the circuit. Wires beyond the logical
     * width are idle ancillas the SWAPs may still move. The initial
     * layout is the identity.
     */
    std::vector<std::uint32_t> initialLayout;
    std::vector<std::uint32_t> finalLayout;

    RoutedStats stats;
};

/**
 * Route `logical` onto `topology`. The topology must be connected
 * and at least as wide as the circuit (fatal otherwise). Emits the
 * hw.route trace span and moves the hw.routed.* counters.
 */
RoutedCircuit routeCircuit(const circuit::Circuit &logical,
                           const Topology &topology);

} // namespace fermihedral::hw

#endif // FERMIHEDRAL_HW_ROUTER_H
