#include "circuit/pauli_compiler.h"

#include <bit>
#include <cmath>

#include "circuit/passes.h"
#include "common/logging.h"

namespace fermihedral::circuit {

void
appendPauliEvolution(Circuit &circuit,
                     const pauli::PauliString &string, double theta)
{
    require(string.numQubits() == circuit.numQubits(),
            "Pauli string width does not match circuit");
    require(string.phaseExp() % 2 == 0,
            "cannot exponentiate a non-Hermitian (i-phased) string");
    if (string.phaseExp() == 2)
        theta = -theta;
    if (string.isIdentity())
        return; // global phase only

    // Step 1: rotate each qubit into the Z basis.
    std::vector<std::uint32_t> support;
    for (std::size_t q = 0; q < string.numQubits(); ++q) {
        const pauli::PauliOp op = string.op(q);
        if (op == pauli::PauliOp::I)
            continue;
        support.push_back(static_cast<std::uint32_t>(q));
        if (op == pauli::PauliOp::X) {
            circuit.add(GateKind::H, q);
        } else if (op == pauli::PauliOp::Y) {
            circuit.add(GateKind::Sdg, q);
            circuit.add(GateKind::H, q);
        }
    }

    // Steps 2-4: CNOT star into the target, Rz, star reversed.
    // exp(i theta Z...Z) = CNOTs * Rz(-2 theta) * CNOTs.
    const std::uint32_t target = support.back();
    for (const std::uint32_t q : support) {
        if (q != target)
            circuit.addCnot(q, target);
    }
    circuit.add(GateKind::Rz, target, -2.0 * theta);
    for (std::size_t i = support.size(); i-- > 0;) {
        if (support[i] != target)
            circuit.addCnot(support[i], target);
    }

    // Step 5: undo the basis rotations.
    for (const std::uint32_t q : support) {
        const pauli::PauliOp op = string.op(q);
        if (op == pauli::PauliOp::X) {
            circuit.add(GateKind::H, q);
        } else if (op == pauli::PauliOp::Y) {
            circuit.add(GateKind::H, q);
            circuit.add(GateKind::S, q);
        }
    }
}

std::vector<pauli::PauliTerm>
orderTerms(const pauli::PauliSum &hamiltonian)
{
    std::vector<pauli::PauliTerm> terms;
    for (const auto &term : hamiltonian.terms()) {
        if (!term.string.isIdentity())
            terms.push_back(term);
    }
    if (terms.size() <= 2)
        return terms;

    // Chain terms so neighbours share as many equal non-identity
    // operators as possible (those single-qubit basis rotations and
    // CNOT legs cancel between adjacent blocks).
    auto overlap = [](const pauli::PauliString &a,
                      const pauli::PauliString &b) {
        // Equal ops: neither mask differs; non-identity: mask set.
        const std::uint64_t same_x = ~(a.xMask() ^ b.xMask());
        const std::uint64_t same_z = ~(a.zMask() ^ b.zMask());
        const std::uint64_t non_identity =
            (a.xMask() | a.zMask()) & (b.xMask() | b.zMask());
        return std::popcount(same_x & same_z & non_identity);
    };

    std::vector<pauli::PauliTerm> chain;
    std::vector<bool> used(terms.size(), false);
    std::size_t current = 0;
    used[0] = true;
    chain.push_back(terms[0]);
    for (std::size_t step = 1; step < terms.size(); ++step) {
        int best_score = -1;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < terms.size(); ++i) {
            if (used[i])
                continue;
            const int score =
                overlap(terms[current].string, terms[i].string);
            if (score > best_score) {
                best_score = score;
                best_index = i;
            }
        }
        used[best_index] = true;
        chain.push_back(terms[best_index]);
        current = best_index;
    }
    return chain;
}

Circuit
compileTrotter(const pauli::PauliSum &hamiltonian, double time,
               std::size_t steps)
{
    require(steps >= 1, "compileTrotter needs at least one step");
    require(hamiltonian.isHermitian(1e-6),
            "compileTrotter requires a Hermitian Pauli sum");
    Circuit circuit(hamiltonian.numQubits());
    const auto terms = orderTerms(hamiltonian);
    const double dt = time / static_cast<double>(steps);
    for (std::size_t step = 0; step < steps; ++step) {
        for (const auto &term : terms) {
            appendPauliEvolution(circuit, term.string,
                                 term.coefficient.real() * dt);
        }
    }
    optimizeCircuit(circuit);
    return circuit;
}

} // namespace fermihedral::circuit
