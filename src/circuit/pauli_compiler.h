/**
 * @file
 * Compilation of Pauli-string evolutions into basic gates.
 *
 * Implements the five-step recipe of the paper's Figure 3 for each
 * exp(i theta P) factor, first-order Trotterization for a whole
 * Pauli-sum Hamiltonian, and a greedy term-ordering heuristic that
 * maximises gate cancellation between adjacent evolution blocks
 * (standing in for the Paulihedral + Qiskit-L3 stack the paper uses
 * for Table 6).
 *
 * Key invariants:
 *  - appendPauliEvolution() requires a real tracked phase (i^0 or
 *    i^2); the sign folds into the rotation angle, so the emitted
 *    circuit equals exp(i theta P) exactly (identity strings emit
 *    nothing — a global phase).
 *  - compileTrotter() emits one evolution block per non-identity
 *    term per step; term ordering and peephole passes change gate
 *    counts but never the implemented unitary.
 *  - orderTerms() returns a permutation of the sum's non-identity
 *    terms — nothing else is dropped, merged or rescaled.
 */

#ifndef FERMIHEDRAL_CIRCUIT_PAULI_COMPILER_H
#define FERMIHEDRAL_CIRCUIT_PAULI_COMPILER_H

#include "circuit/circuit.h"
#include "pauli/pauli_string.h"
#include "pauli/pauli_sum.h"

namespace fermihedral::circuit {

/**
 * Append the circuit implementing exp(i * theta * P).
 *
 * The string's tracked phase must be real (i^0 or i^2); a negative
 * sign folds into the rotation angle. Identity strings are a global
 * phase and emit nothing.
 */
void appendPauliEvolution(Circuit &circuit,
                          const pauli::PauliString &string,
                          double theta);

/**
 * First-order Trotter circuit for exp(i * H * time) over `steps`
 * steps: the orderTerms() sequence, then the peephole passes.
 */
Circuit compileTrotter(const pauli::PauliSum &hamiltonian,
                       double time, std::size_t steps = 1);

/**
 * The term sequence compileTrotter uses: the non-identity terms,
 * chained greedily so neighbours share as many equal operators as
 * possible (exposed for tests).
 */
std::vector<pauli::PauliTerm> orderTerms(
    const pauli::PauliSum &hamiltonian);

} // namespace fermihedral::circuit

#endif // FERMIHEDRAL_CIRCUIT_PAULI_COMPILER_H
