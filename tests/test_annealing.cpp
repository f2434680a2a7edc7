/**
 * @file
 * Tests for Algorithm 2 (simulated-annealing pairing).
 */

#include <gtest/gtest.h>

#include "core/annealing.h"
#include "encodings/linear.h"
#include "fermion/models.h"

namespace fermihedral::core {
namespace {

TEST(Annealing, NeverWorseThanInitialAssignment)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto result = annealPairing(base, h);
    EXPECT_LE(result.finalCost, result.initialCost);
    EXPECT_EQ(result.initialCost,
              enc::hamiltonianPauliWeight(h, base));
}

TEST(Annealing, ReportedCostMatchesEncoding)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto result = annealPairing(base, h);
    EXPECT_EQ(result.finalCost,
              enc::hamiltonianPauliWeight(h, result.encoding));
}

TEST(Annealing, ResultIsAValidEncoding)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto result = annealPairing(base, h);
    const auto v = enc::validateEncoding(result.encoding);
    EXPECT_TRUE(v.anticommutativity) << v.detail;
    EXPECT_TRUE(v.algebraicIndependence) << v.detail;
    // Pair swaps preserve the vacuum property of the base encoding.
    EXPECT_TRUE(v.vacuumPreserving) << v.detail;
}

TEST(Annealing, AssignmentIsAPermutation)
{
    Rng rng(5);
    const auto h = fermion::sykModel(4, rng);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto result = annealPairing(base, h);
    std::vector<bool> used(h.modes(), false);
    for (const auto pair_index : result.assignment) {
        ASSERT_LT(pair_index, h.modes());
        EXPECT_FALSE(used[pair_index]);
        used[pair_index] = true;
    }
}

TEST(Annealing, DeterministicForEqualInputs)
{
    const auto h = fermion::fermiHubbard1D(4, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto a = annealPairing(base, h);
    const auto b = annealPairing(base, h);
    EXPECT_EQ(a.finalCost, b.finalCost);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(Annealing, SingleModeIsNoop)
{
    fermion::FermionHamiltonian h(1);
    h.addFermionTerm(1.0, {fermion::create(0),
                           fermion::annihilate(0)});
    const auto base = enc::jordanWigner(1);
    const auto result = annealPairing(base, h);
    EXPECT_EQ(result.initialCost, result.finalCost);
    EXPECT_EQ(result.encoding.majoranas, base.majoranas);
}

TEST(Annealing, FindsObviousImprovement)
{
    // Hopping between modes 0 and 1: under Jordan-Wigner the
    // product weight grows with the distance between the pairs, so
    // scrambling the pairs such that modes 0 and 1 land far apart
    // gives the annealer an improvement to find.
    fermion::FermionHamiltonian h(3);
    h.addFermionTerm(1.0, {fermion::create(0),
                           fermion::annihilate(1)});
    h.addFermionTerm(1.0, {fermion::create(1),
                           fermion::annihilate(0)});

    enc::FermionEncoding base = enc::jordanWigner(3);
    // Move JW pair 2 into slot 1 so modes (0, 1) initially use the
    // JW pairs (0, 2), whose hopping products have weight 3.
    std::swap(base.majoranas[2], base.majoranas[4]);
    std::swap(base.majoranas[3], base.majoranas[5]);

    const auto result = annealPairing(base, h);
    EXPECT_LT(result.finalCost, result.initialCost);
}

TEST(Annealing, ProductionSchedulePinned)
{
    // The schedule and seed are constants: a mistyped T0, T1, step,
    // proposal count or seed moves these numbers. 80 temperatures
    // (40 down to 0.5 in steps of 0.5) x 200 proposals = 16000.
    const auto h = fermion::fermiHubbard1D(4, 1.0, 4.0);
    const auto result = annealPairing(enc::bravyiKitaev(8), h);
    EXPECT_EQ(result.initialCost, 320u);
    EXPECT_EQ(result.finalCost, 264u);
    EXPECT_EQ(result.proposals, 16000u);
    EXPECT_EQ(result.accepted, 8869u);
}

TEST(Annealing, AcceptanceStatisticsAreTracked)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto base = enc::bravyiKitaev(h.modes());
    const auto result = annealPairing(base, h);
    EXPECT_GT(result.proposals, 0u);
    EXPECT_LE(result.accepted, result.proposals);
}

} // namespace
} // namespace fermihedral::core
