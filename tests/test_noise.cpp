/**
 * @file
 * Tests for the Monte-Carlo noise model and measurement sampling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/pauli_compiler.h"
#include "common/rng.h"
#include "sim/exact.h"
#include "sim/noise.h"

namespace fermihedral::sim {
namespace {

using circuit::Circuit;
using circuit::GateKind;

Circuit
ghzCircuit(std::size_t qubits)
{
    Circuit c(qubits);
    c.add(GateKind::H, 0);
    for (std::uint32_t q = 0; q + 1 < qubits; ++q)
        c.addCnot(q, q + 1);
    return c;
}

TEST(Noise, IdealTrajectoryIsDeterministic)
{
    Rng rng(1);
    const Circuit c = ghzCircuit(3);
    const StateVector initial(3);
    StateVector out(3);
    runNoisyTrajectoryInto(c, initial, NoiseModel::ideal(), rng, out);
    StateVector expected(3);
    expected.applyCircuit(c);
    EXPECT_NEAR(out.fidelity(expected), 1.0, 1e-12);
}

TEST(Noise, DepolarizingReducesAverageFidelity)
{
    const Circuit c = ghzCircuit(4);
    const StateVector initial(4);
    StateVector expected(4);
    expected.applyCircuit(c);

    NoiseModel noisy;
    noisy.singleQubitError = 0.02;
    noisy.twoQubitError = 0.05;

    Rng rng(2);
    StateVector out(4);
    double fidelity_sum = 0.0;
    const int trajectories = 300;
    for (int t = 0; t < trajectories; ++t) {
        runNoisyTrajectoryInto(c, initial, noisy, rng, out);
        fidelity_sum += out.fidelity(expected);
    }
    const double average = fidelity_sum / trajectories;
    EXPECT_LT(average, 0.98);
    EXPECT_GT(average, 0.5);
}

TEST(Noise, HigherErrorRatesHurtMore)
{
    const Circuit c = ghzCircuit(4);
    const StateVector initial(4);
    StateVector expected(4);
    expected.applyCircuit(c);

    auto average_fidelity = [&](double p2, std::uint64_t seed) {
        NoiseModel noise;
        noise.twoQubitError = p2;
        Rng rng(seed);
        StateVector out(4);
        double sum = 0.0;
        const int trajectories = 400;
        for (int t = 0; t < trajectories; ++t) {
            runNoisyTrajectoryInto(c, initial, noise, rng, out);
            sum += out.fidelity(expected);
        }
        return sum / trajectories;
    };
    EXPECT_GT(average_fidelity(0.01, 3), average_fidelity(0.2, 4));
}

TEST(Noise, SampledEnergyIsUnbiased)
{
    // Energy of a GHZ state under a simple Hamiltonian: sampling
    // many one-shot estimates must converge to the exact value.
    const Circuit c = ghzCircuit(3);
    StateVector state(3);
    state.applyCircuit(c);

    pauli::PauliSum h(3);
    h.add(0.5, pauli::PauliString::fromLabel("ZZI"));
    h.add(-1.5, pauli::PauliString::fromLabel("IZZ"));
    h.add(0.25, pauli::PauliString::fromLabel("XXX"));
    h.add(2.0, pauli::PauliString::fromLabel("III"));
    h.simplify();
    const double exact = state.expectation(h);

    Rng rng(5);
    double sum = 0.0;
    const int shots = 4000;
    for (int s = 0; s < shots; ++s)
        sum += sampleEnergy(state, h, NoiseModel::ideal(), rng);
    EXPECT_NEAR(sum / shots, exact, 0.05);
}

TEST(Noise, ReadoutErrorBiasesTowardZero)
{
    // <Z> of |0> is 1; readout flips shrink it to 1 - 2 p.
    StateVector state(1);
    pauli::PauliSum h(1);
    h.add(1.0, pauli::PauliString::fromLabel("Z"));
    h.simplify();

    NoiseModel noise;
    noise.readoutError = 0.2;
    Rng rng(6);
    double sum = 0.0;
    const int shots = 20000;
    for (int s = 0; s < shots; ++s)
        sum += sampleEnergy(state, h, noise, rng);
    EXPECT_NEAR(sum / shots, 1.0 - 2.0 * 0.2, 0.02);
}

TEST(Noise, MeasureEnergyStatisticsShape)
{
    const Circuit c = ghzCircuit(2);
    const StateVector initial(2);
    pauli::PauliSum h(2);
    h.add(1.0, pauli::PauliString::fromLabel("ZZ"));
    h.simplify();

    Rng rng(7);
    ThreadPool pool(1);
    const auto stats = measureEnergy(c, initial, h,
                                     NoiseModel::ideal(), 500, rng,
                                     pool);
    EXPECT_EQ(stats.shots, 500u);
    // GHZ: ZZ is +1 always.
    EXPECT_NEAR(stats.mean, 1.0, 1e-9);
    EXPECT_NEAR(stats.standardDeviation, 0.0, 1e-9);
}

TEST(Noise, NoisyMeasurementIncreasesVariance)
{
    const Circuit c = ghzCircuit(3);
    const StateVector initial(3);
    pauli::PauliSum h(3);
    h.add(1.0, pauli::PauliString::fromLabel("ZZI"));
    h.add(1.0, pauli::PauliString::fromLabel("XXX"));
    h.simplify();

    Rng rng_a(8), rng_b(9);
    ThreadPool pool(1);
    const auto clean = measureEnergy(c, initial, h,
                                     NoiseModel::ideal(), 400,
                                     rng_a, pool);
    NoiseModel noisy = NoiseModel::ionqAria1();
    const auto degraded =
        measureEnergy(c, initial, h, noisy, 400, rng_b, pool);
    EXPECT_GE(degraded.standardDeviation,
              clean.standardDeviation - 1e-9);
    EXPECT_LT(degraded.mean, clean.mean + 1e-9);
}

TEST(Noise, MeasurementPlanPartitionsTerms)
{
    pauli::PauliSum h(3);
    h.add(0.5, pauli::PauliString::fromLabel("ZZI"));
    h.add(-1.5, pauli::PauliString::fromLabel("IZZ"));
    h.add(0.25, pauli::PauliString::fromLabel("XXX"));
    h.add(2.0, pauli::PauliString::fromLabel("III"));
    h.simplify();

    const MeasurementPlan plan(h);
    EXPECT_EQ(plan.numQubits(), 3u);
    EXPECT_NEAR(plan.identityEnergy(), 2.0, 1e-12);
    // ZZI and IZZ are qubit-wise commuting (one Z family); XXX is
    // its own family.
    EXPECT_EQ(plan.groups().size(), 2u);
    std::size_t measured_terms = 0;
    for (const auto &group : plan.groups()) {
        for (const auto &term : group.terms) {
            EXPECT_NE(term.supportMask, 0u);
            ++measured_terms;
        }
    }
    EXPECT_EQ(measured_terms, 3u);
}

TEST(Noise, GroupedSampleEnergyMatchesUngroupedMean)
{
    // Same estimator target: grouped and ungrouped one-shot
    // estimates must agree in the mean within shot noise.
    const Circuit c = ghzCircuit(3);
    StateVector state(3);
    state.applyCircuit(c);

    pauli::PauliSum h(3);
    h.add(0.5, pauli::PauliString::fromLabel("ZZI"));
    h.add(-1.5, pauli::PauliString::fromLabel("IZZ"));
    h.add(0.25, pauli::PauliString::fromLabel("XXX"));
    h.add(0.75, pauli::PauliString::fromLabel("XYY"));
    h.add(2.0, pauli::PauliString::fromLabel("III"));
    h.simplify();
    const double exact = state.expectation(h);
    const MeasurementPlan plan(h);

    Rng rng_grouped(15), rng_ungrouped(16);
    double grouped = 0.0, ungrouped = 0.0;
    const int shots = 6000;
    for (int s = 0; s < shots; ++s) {
        grouped += sampleEnergy(state, plan, NoiseModel::ideal(),
                                rng_grouped);
        ungrouped += sampleEnergy(state, h, NoiseModel::ideal(),
                                  rng_ungrouped);
    }
    grouped /= shots;
    ungrouped /= shots;
    EXPECT_NEAR(grouped, exact, 0.06);
    EXPECT_NEAR(ungrouped, exact, 0.06);
    EXPECT_NEAR(grouped, ungrouped, 0.1);
}

TEST(Noise, GroupedReadoutErrorBiasesTowardZero)
{
    // <Z> of |0> with readout flips shrinks to 1 - 2p through the
    // grouped path just as through the ungrouped one.
    StateVector state(1);
    pauli::PauliSum h(1);
    h.add(1.0, pauli::PauliString::fromLabel("Z"));
    h.simplify();
    const MeasurementPlan plan(h);

    NoiseModel noise;
    noise.readoutError = 0.2;
    Rng rng(17);
    double sum = 0.0;
    const int shots = 20000;
    for (int s = 0; s < shots; ++s)
        sum += sampleEnergy(state, plan, noise, rng);
    EXPECT_NEAR(sum / shots, 1.0 - 2.0 * 0.2, 0.02);
}

TEST(Noise, MeasureEnergyReportsElapsedTime)
{
    const Circuit c = ghzCircuit(2);
    const StateVector initial(2);
    pauli::PauliSum h(2);
    h.add(1.0, pauli::PauliString::fromLabel("ZZ"));
    h.simplify();
    Rng rng(18);
    ThreadPool pool(1);
    const auto stats = measureEnergy(c, initial, h,
                                     NoiseModel::ideal(), 100, rng,
                                     pool);
    EXPECT_GT(stats.elapsedSeconds, 0.0);
    EXPECT_EQ(stats.shots, 100u);
}

TEST(Noise, IonqPresetMatchesPaperNumbers)
{
    const auto profile = NoiseModel::ionqAria1();
    EXPECT_NEAR(profile.singleQubitError, 1e-4, 1e-9);
    EXPECT_NEAR(profile.twoQubitError, 0.0109, 1e-9);
    EXPECT_NEAR(profile.readoutError, 0.0118, 1e-9);
}

} // namespace
} // namespace fermihedral::sim
