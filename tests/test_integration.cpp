/**
 * @file
 * Cross-module integration tests: the full pipeline from a
 * Fermionic model through a SAT-optimal encoding to compiled,
 * simulated circuits.
 */

#include <gtest/gtest.h>

#include "circuit/pauli_compiler.h"
#include "common/parallel.h"
#include "core/annealing.h"
#include "core/descent_solver.h"
#include "encodings/encoding.h"
#include "encodings/linear.h"
#include "fermion/fock.h"
#include "fermion/models.h"
#include "hw/router.h"
#include "sim/exact.h"
#include "sim/noise.h"

namespace fermihedral {
namespace {

core::DescentOptions
fastOptions()
{
    core::DescentOptions options;
    options.stepTimeoutSeconds = 10.0;
    options.totalTimeoutSeconds = 60.0;
    return options;
}

TEST(Integration, SatEncodingPreservesHubbardSpectrum)
{
    const auto h = fermion::fermiHubbard1D(2, 1.0, 4.0);
    core::DescentSolver solver(h.modes(), fastOptions());
    const auto result = solver.solve();
    ASSERT_TRUE(enc::validateEncoding(result.encoding).valid());

    const auto qubit_h = enc::mapToQubits(h, result.encoding);
    EXPECT_TRUE(qubit_h.isHermitian(1e-9));

    const std::size_t dim = std::size_t{1} << h.modes();
    const auto fock_eigs =
        sim::eigenvaluesHermitian(fermion::fockMatrix(h), dim);
    const auto qubit_eigs =
        sim::eigenvaluesHermitian(sim::denseMatrix(qubit_h), dim);
    for (std::size_t i = 0; i < dim; ++i)
        EXPECT_NEAR(fock_eigs[i], qubit_eigs[i], 1e-8);
}

TEST(Integration, SatEncodingLowersHubbardCircuitCost)
{
    // The Table 6 claim in miniature: the SAT encoding's compiled
    // circuit is no more expensive than Bravyi-Kitaev's.
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    core::DescentOptions options = fastOptions();
    options.totalTimeoutSeconds = 45.0;
    core::DescentSolver solver(h, options);
    const auto result = solver.solve();

    const auto bk_h = enc::mapToQubits(h, enc::bravyiKitaev(6));
    const auto sat_h = enc::mapToQubits(h, result.encoding);
    const auto bk_cost = circuit::compileTrotter(bk_h, 1.0).costs();
    const auto sat_cost =
        circuit::compileTrotter(sat_h, 1.0).costs();
    EXPECT_LE(sat_cost.totalGates, bk_cost.totalGates);
}

TEST(Integration, EigenstateStationaryUnderNoiselessEvolution)
{
    // Figure 8 sanity: starting from an eigenstate, the Trotter
    // circuit must return (numerically) the same energy when
    // noiseless.
    const auto h2 = fermion::h2Sto3gIntegrals().toHamiltonian();
    const auto encoding = enc::bravyiKitaev(4);
    auto qubit_h = enc::mapToQubits(h2, encoding);

    const auto eigen = sim::eigendecompose(qubit_h);
    for (std::size_t level : {0u, 1u, 3u}) {
        const auto initial = eigen.state(level);
        const auto circuit = circuit::compileTrotter(qubit_h, 1.0, 4);
        sim::StateVector evolved = initial;
        evolved.applyCircuit(circuit);
        // Energy is conserved up to Trotter error.
        EXPECT_NEAR(evolved.expectation(qubit_h),
                    eigen.values[level], 0.05)
            << "level " << level;
    }
}

TEST(Integration, H2TrotterCompileAndRoutePinned)
{
    // The term order, peephole passes, router lookahead and
    // tie-break seed are constants: a mistyped one moves these
    // counts.
    const auto h2 = fermion::h2Sto3gIntegrals().toHamiltonian();
    const auto qubit_h = enc::mapToQubits(h2, enc::bravyiKitaev(4));
    const auto circuit = circuit::compileTrotter(qubit_h, 1.0);
    const auto costs = circuit.costs();
    EXPECT_EQ(costs.singleQubitGates, 26u);
    EXPECT_EQ(costs.cnotGates, 40u);
    EXPECT_EQ(costs.totalGates, 66u);
    EXPECT_EQ(costs.depth, 57u);

    const auto grid =
        hw::routeCircuit(circuit, hw::Topology::grid(2, 4)).stats;
    EXPECT_EQ(grid.swaps, 9u);
    EXPECT_EQ(grid.twoQubitGates, 67u);
    EXPECT_EQ(grid.singleQubitGates, 26u);
    EXPECT_EQ(grid.depth, 80u);

    const auto hex =
        hw::routeCircuit(circuit, hw::Topology::heavyHex(1)).stats;
    EXPECT_EQ(hex.swaps, 13u);
    EXPECT_EQ(hex.twoQubitGates, 79u);
    EXPECT_EQ(hex.singleQubitGates, 26u);
    EXPECT_EQ(hex.depth, 89u);
}

TEST(Integration, NoiseDriftsEnergyUpFromGroundState)
{
    // The qualitative effect behind Figs. 8-10: with increasing
    // 2-qubit error the measured energy drifts away from E0
    // (upward, since E0 is the minimum).
    const auto h2 = fermion::h2Sto3gIntegrals().toHamiltonian();
    const auto qubit_h =
        enc::mapToQubits(h2, enc::jordanWigner(4));
    const auto eigen = sim::eigendecompose(qubit_h);
    const auto initial = eigen.state(0);
    const auto circuit = circuit::compileTrotter(qubit_h, 1.0);

    Rng rng(21);
    ThreadPool pool(1);
    sim::NoiseModel low, high;
    low.twoQubitError = 1e-4;
    high.twoQubitError = 3e-2;
    const auto low_stats = sim::measureEnergy(
        circuit, initial, qubit_h, low, 150, rng, pool);
    const auto high_stats = sim::measureEnergy(
        circuit, initial, qubit_h, high, 150, rng, pool);
    EXPECT_GT(high_stats.mean, low_stats.mean);
    EXPECT_GE(high_stats.mean, eigen.values[0] - 0.05);
}

TEST(Integration, AnnealedPairingKeepsSpectrum)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto annealed = core::annealPairing(base, h);

    const std::size_t dim = std::size_t{1} << h.modes();
    const auto fock_eigs =
        sim::eigenvaluesHermitian(fermion::fockMatrix(h), dim);
    const auto qubit_h = enc::mapToQubits(h, annealed.encoding);
    const auto qubit_eigs =
        sim::eigenvaluesHermitian(sim::denseMatrix(qubit_h), dim);
    for (std::size_t i = 0; i < dim; ++i)
        EXPECT_NEAR(fock_eigs[i], qubit_eigs[i], 1e-8);
}

TEST(Integration, SatPlusAnnealingBeatsUnpairedOnSyk)
{
    Rng rng(17);
    const auto syk = fermion::sykModel(3, rng);
    core::DescentSolver solver(syk.modes(), fastOptions());
    const auto independent = solver.solve();

    const auto annealed =
        core::annealPairing(independent.encoding, syk);
    EXPECT_LE(annealed.finalCost,
              enc::hamiltonianPauliWeight(syk,
                                          independent.encoding));
}

TEST(Integration, WeightReductionTranslatesToGateReduction)
{
    // The core causal claim of the paper: lower Hamiltonian Pauli
    // weight gives fewer gates before optimization.
    const auto h = fermion::fermiHubbard1D(2, 1.0, 4.0);
    const auto jw = enc::jordanWigner(4);
    const auto bk = enc::bravyiKitaev(4);

    const auto jw_weight = enc::hamiltonianPauliWeight(h, jw);
    const auto bk_weight = enc::hamiltonianPauliWeight(h, bk);

    // One unoptimized Figure 3 block per term.
    const auto raw_costs = [&](const enc::FermionEncoding &encoding) {
        const auto qubit_h = enc::mapToQubits(h, encoding);
        circuit::Circuit raw(qubit_h.numQubits());
        for (const auto &term : qubit_h.terms())
            circuit::appendPauliEvolution(raw, term.string,
                                          term.coefficient.real());
        return raw.costs();
    };
    const auto jw_gates = raw_costs(jw);
    const auto bk_gates = raw_costs(bk);
    if (jw_weight < bk_weight) {
        EXPECT_LE(jw_gates.totalGates, bk_gates.totalGates);
    } else if (bk_weight < jw_weight) {
        EXPECT_LE(bk_gates.totalGates, jw_gates.totalGates);
    }
}

} // namespace
} // namespace fermihedral
