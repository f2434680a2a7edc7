/**
 * @file
 * Tests for the Pauli-evolution compiler (Figure 3 recipe).
 *
 * Exactness anchor: because P^2 = I, the target unitary satisfies
 * exp(i theta P) |psi> = cos(theta) |psi> + i sin(theta) P |psi>,
 * which the compiled circuit must reproduce on random states.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/pauli_compiler.h"

#include "common/logging.h"
#include "circuit/passes.h"
#include "common/rng.h"
#include "sim/statevector.h"

namespace fermihedral::circuit {
namespace {

using sim::Amplitude;
using sim::StateVector;

StateVector
randomState(std::size_t qubits, Rng &rng)
{
    std::vector<Amplitude> amps(std::size_t{1} << qubits);
    for (auto &amp : amps)
        amp = Amplitude(rng.nextGaussian(), rng.nextGaussian());
    StateVector psi(qubits, std::move(amps));
    psi.normalize();
    return psi;
}

/** exp(i theta P)|psi> via the closed form. */
StateVector
exactEvolution(const StateVector &psi, const pauli::PauliString &p,
               double theta)
{
    StateVector rotated = psi;
    rotated.applyPauli(p);
    std::vector<Amplitude> amps(psi.dimension());
    const Amplitude c{std::cos(theta), 0.0};
    const Amplitude is{0.0, std::sin(theta)};
    for (std::size_t i = 0; i < amps.size(); ++i) {
        amps[i] = c * psi.amplitudes()[i] +
                  is * rotated.amplitudes()[i];
    }
    return StateVector(psi.numQubits(), std::move(amps));
}

double
stateDistance(const StateVector &a, const StateVector &b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.dimension(); ++i)
        sum += std::norm(a.amplitudes()[i] - b.amplitudes()[i]);
    return std::sqrt(sum);
}

class EvolutionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(EvolutionProperty, CompiledCircuitMatchesExactUnitary)
{
    const int qubits = 4;
    Rng rng(500 + GetParam());
    // Random non-identity string with a real phase (+1 or -1).
    pauli::PauliString p(qubits);
    do {
        for (int q = 0; q < qubits; ++q)
            p.setOp(q,
                    static_cast<pauli::PauliOp>(rng.nextBelow(4)));
    } while (p.isIdentity());
    if (rng.nextBool())
        p = p.withPhase(2);
    const double theta = rng.nextDouble(-2.0, 2.0);

    Circuit circuit(qubits);
    appendPauliEvolution(circuit, p, theta);

    const StateVector psi = randomState(qubits, rng);
    StateVector compiled = psi;
    compiled.applyCircuit(circuit);
    const StateVector exact = exactEvolution(psi, p, theta);

    // Global phase: the Rz implementation differs from exp(i.. )
    // by none (we track it), so compare amplitudes directly.
    EXPECT_LT(stateDistance(compiled, exact), 1e-10)
        << p.label() << " theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Random, EvolutionProperty,
                         ::testing::Range(0, 30));

TEST(PauliCompiler, OptimizedCircuitStillExact)
{
    Rng rng(4242);
    const int qubits = 3;
    pauli::PauliSum h(qubits);
    h.add(0.3, pauli::PauliString::fromLabel("XXI"));
    h.add(0.5, pauli::PauliString::fromLabel("IXX"));
    h.add(-0.7, pauli::PauliString::fromLabel("ZZZ"));
    h.add(0.2, pauli::PauliString::fromLabel("IYX"));
    h.simplify();

    // The unoptimized circuit: the same term sequence, block by
    // block, without the peephole passes.
    Circuit c_raw(qubits);
    for (const auto &term : orderTerms(h))
        appendPauliEvolution(c_raw, term.string,
                             term.coefficient.real() * 0.37);
    const Circuit c_opt = compileTrotter(h, 0.37);
    EXPECT_LE(c_opt.size(), c_raw.size());

    for (int trial = 0; trial < 3; ++trial) {
        const StateVector psi = randomState(qubits, rng);
        StateVector a = psi, b = psi;
        a.applyCircuit(c_raw);
        b.applyCircuit(c_opt);
        EXPECT_LT(stateDistance(a, b), 1e-10);
    }
}

TEST(PauliCompiler, IdentityTermEmitsNothing)
{
    Circuit circuit(2);
    appendPauliEvolution(circuit,
                         pauli::PauliString::fromLabel("II"), 0.5);
    EXPECT_EQ(circuit.size(), 0u);
}

TEST(PauliCompiler, NegativePhaseFlipsAngle)
{
    Rng rng(7);
    const auto p = pauli::PauliString::fromLabel("XZ");
    const auto minus_p = pauli::PauliString::fromLabel("-XZ");
    Circuit a(2), b(2);
    appendPauliEvolution(a, p, 0.4);
    appendPauliEvolution(b, minus_p, -0.4);
    const StateVector psi = randomState(2, rng);
    StateVector sa = psi, sb = psi;
    sa.applyCircuit(a);
    sb.applyCircuit(b);
    EXPECT_LT(stateDistance(sa, sb), 1e-12);
}

TEST(PauliCompiler, ImaginaryPhaseIsRejected)
{
    Circuit circuit(1);
    EXPECT_THROW(appendPauliEvolution(
                     circuit, pauli::PauliString::fromLabel("iX"),
                     0.5),
                 PanicError);
}

TEST(PauliCompiler, SingleStepTrotterOfCommutingTermsIsExact)
{
    // Commuting Z-type terms: one Trotter step is exact.
    Rng rng(8);
    pauli::PauliSum h(3);
    h.add(0.4, pauli::PauliString::fromLabel("ZZI"));
    h.add(-0.3, pauli::PauliString::fromLabel("IZZ"));
    h.add(0.9, pauli::PauliString::fromLabel("ZIZ"));
    h.simplify();

    const Circuit c = compileTrotter(h, 0.81);
    const StateVector psi = randomState(3, rng);
    StateVector compiled = psi;
    compiled.applyCircuit(c);

    // Exact: apply each term's closed form sequentially.
    StateVector exact = psi;
    for (const auto &term : h.terms()) {
        exact = exactEvolution(exact, term.string,
                               term.coefficient.real() * 0.81);
    }
    EXPECT_LT(stateDistance(compiled, exact), 1e-10);
}

TEST(PauliCompiler, MoreTrotterStepsReduceError)
{
    Rng rng(9);
    pauli::PauliSum h(2);
    h.add(0.7, pauli::PauliString::fromLabel("XI"));
    h.add(0.9, pauli::PauliString::fromLabel("ZZ"));
    h.simplify();

    // Reference: many steps.
    const Circuit reference = compileTrotter(h, 1.0, 512);
    const StateVector psi = randomState(2, rng);
    StateVector ref_state = psi;
    ref_state.applyCircuit(reference);

    double last_error = 1e9;
    for (std::size_t steps : {1u, 4u, 16u}) {
        const Circuit c = compileTrotter(h, 1.0, steps);
        StateVector s = psi;
        s.applyCircuit(c);
        const double error = stateDistance(s, ref_state);
        EXPECT_LT(error, last_error);
        last_error = error;
    }
}

TEST(OrderTerms, GreedyCoversAllTerms)
{
    pauli::PauliSum h(2);
    h.add(1.0, pauli::PauliString::fromLabel("XX"));
    h.add(1.0, pauli::PauliString::fromLabel("ZZ"));
    h.add(1.0, pauli::PauliString::fromLabel("XI"));
    h.add(1.0, pauli::PauliString::fromLabel("II")); // dropped
    h.simplify();
    const auto ordered = orderTerms(h);
    EXPECT_EQ(ordered.size(), 3u);
}

TEST(OrderTerms, GreedyReducesGateCountOnStructuredInput)
{
    // Terms sharing X-basis support benefit from adjacency.
    pauli::PauliSum h(4);
    h.add(0.1, pauli::PauliString::fromLabel("XXII"));
    h.add(0.2, pauli::PauliString::fromLabel("ZZII"));
    h.add(0.3, pauli::PauliString::fromLabel("XXXX"));
    h.add(0.4, pauli::PauliString::fromLabel("ZZZZ"));
    h.add(0.5, pauli::PauliString::fromLabel("XXII"));
    h.simplify();

    // The natural-order circuit: the sum's canonical term order,
    // through the same peephole passes.
    Circuit natural(4);
    for (const auto &term : h.terms())
        appendPauliEvolution(natural, term.string,
                             term.coefficient.real());
    optimizeCircuit(natural);
    const auto greedy_cost = compileTrotter(h, 1.0).costs();
    EXPECT_LE(greedy_cost.totalGates, natural.costs().totalGates);
}

} // namespace
} // namespace fermihedral::circuit
