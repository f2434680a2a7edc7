/**
 * @file
 * Algorithm 2: simulated-annealing assignment of Majorana operators
 * to creation/annihilation pairs (Section 4.2).
 *
 * Given a Hamiltonian-independent optimal encoding, the remaining
 * freedom is which Majorana pair implements which Fermionic mode.
 * The annealer takes the Hamiltonian Pauli weight (Eq. 14) as the
 * energy and proposes pair swaps, which preserve the vacuum
 * pairing property exactly as the paper argues.
 *
 * Key invariants:
 *  - Proposals only permute which Majorana pair serves which mode:
 *    the multiset of Pauli strings in the result equals the input's,
 *    so every validity property of `base` is preserved.
 *  - finalCost <= initialCost always (the best assignment seen is
 *    returned, not the last accepted one), and both are exact
 *    hamiltonianPauliWeight() values.
 *  - Runs are deterministic: Algorithm 2's schedule and the RNG
 *    seed are constants in annealing.cpp, so equal inputs give
 *    equal results.
 */

#ifndef FERMIHEDRAL_CORE_ANNEALING_H
#define FERMIHEDRAL_CORE_ANNEALING_H

#include <cstdint>
#include <vector>

#include "encodings/encoding.h"
#include "fermion/operators.h"

namespace fermihedral::core {

/** Result of an annealing run. */
struct AnnealingResult
{
    /** The re-paired encoding. */
    enc::FermionEncoding encoding;
    /** Mode -> original pair index permutation chosen. */
    std::vector<std::uint32_t> assignment;
    /** Hamiltonian Pauli weight before annealing. */
    std::size_t initialCost = 0;
    /** Hamiltonian Pauli weight after annealing. */
    std::size_t finalCost = 0;
    /** Total proposals evaluated. */
    std::size_t proposals = 0;
    /** Accepted proposals. */
    std::size_t accepted = 0;
};

/**
 * Run Algorithm 2: search over pair permutations of `base` that
 * minimise the Hamiltonian Pauli weight of `hamiltonian`.
 */
AnnealingResult annealPairing(
    const enc::FermionEncoding &base,
    const fermion::FermionHamiltonian &hamiltonian);

} // namespace fermihedral::core

#endif // FERMIHEDRAL_CORE_ANNEALING_H
