#include "core/annealing.h"

#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace fermihedral::core {

namespace {

// Algorithm 2's schedule (T0, T1, alpha, i) and the RNG seed.
constexpr double kInitialTemperature = 40.0;
constexpr double kFinalTemperature = 0.5;
constexpr double kTemperatureStep = 0.5;
constexpr std::size_t kProposalsPerTemperature = 200;
constexpr std::uint64_t kSeed = 0x5eed;

/** Precomputed per-subset data for incremental energy updates. */
struct SubsetInfo
{
    std::vector<std::uint8_t> indices; // Hamiltonian Majorana ids
    std::uint32_t multiplicity = 0;
    std::size_t currentWeight = 0;
};

/** Pauli weight of a subset product under the given assignment. */
std::size_t
subsetWeight(const SubsetInfo &subset,
             const std::vector<std::uint32_t> &assignment,
             const std::vector<std::uint64_t> &x_masks,
             const std::vector<std::uint64_t> &z_masks)
{
    std::uint64_t x = 0, z = 0;
    for (const std::uint8_t index : subset.indices) {
        const std::uint32_t mapped =
            2 * assignment[index / 2] + index % 2;
        x ^= x_masks[mapped];
        z ^= z_masks[mapped];
    }
    return static_cast<std::size_t>(std::popcount(x | z));
}

} // namespace

AnnealingResult
annealPairing(const enc::FermionEncoding &base,
              const fermion::FermionHamiltonian &hamiltonian)
{
    require(base.modes == hamiltonian.modes(),
            "annealPairing: encoding/Hamiltonian mode mismatch");
    const std::size_t modes = base.modes;

    // Cache the encoding's symplectic masks for fast products.
    std::vector<std::uint64_t> x_masks(2 * modes), z_masks(2 * modes);
    for (std::size_t i = 0; i < 2 * modes; ++i) {
        x_masks[i] = base.majoranas[i].xMask();
        z_masks[i] = base.majoranas[i].zMask();
    }

    // Expand the Hamiltonian's Majorana-product structure.
    std::vector<SubsetInfo> subsets;
    std::vector<std::vector<std::uint32_t>> mode_subsets(modes);
    for (const auto &entry :
         fermion::majoranaStructure(hamiltonian)) {
        SubsetInfo info;
        info.multiplicity = entry.multiplicity;
        std::uint64_t remaining = entry.mask;
        while (remaining) {
            const int index = std::countr_zero(remaining);
            remaining &= remaining - 1;
            info.indices.push_back(static_cast<std::uint8_t>(index));
        }
        const auto id = static_cast<std::uint32_t>(subsets.size());
        for (const std::uint8_t index : info.indices) {
            auto &list = mode_subsets[index / 2];
            if (list.empty() || list.back() != id)
                list.push_back(id);
        }
        subsets.push_back(std::move(info));
    }

    std::vector<std::uint32_t> assignment(modes);
    for (std::size_t j = 0; j < modes; ++j)
        assignment[j] = static_cast<std::uint32_t>(j);

    std::size_t energy = 0;
    for (auto &subset : subsets) {
        subset.currentWeight =
            subsetWeight(subset, assignment, x_masks, z_masks);
        energy += subset.multiplicity * subset.currentWeight;
    }

    AnnealingResult result;
    result.initialCost = energy;
    result.assignment = assignment;
    result.finalCost = energy;

    if (modes < 2 || subsets.empty()) {
        result.encoding = base;
        return result;
    }

    Rng rng(kSeed);
    std::vector<std::uint32_t> best_assignment = assignment;
    std::size_t best_energy = energy;

    // Scratch for evaluating a proposal before committing it.
    std::vector<std::uint32_t> touched;
    std::vector<std::size_t> new_weights;
    std::vector<char> seen(subsets.size(), 0);

    double temperature = kInitialTemperature;
    while (temperature >= kFinalTemperature) {
        for (std::size_t iter = 0; iter < kProposalsPerTemperature;
             ++iter) {
            const auto a = static_cast<std::size_t>(
                rng.nextBelow(modes));
            auto b = static_cast<std::size_t>(
                rng.nextBelow(modes - 1));
            if (b >= a)
                ++b;
            ++result.proposals;

            std::swap(assignment[a], assignment[b]);

            // Only subsets touching modes a or b change weight.
            touched.clear();
            new_weights.clear();
            for (const std::size_t mode : {a, b}) {
                for (const std::uint32_t id : mode_subsets[mode]) {
                    if (!seen[id]) {
                        seen[id] = 1;
                        touched.push_back(id);
                    }
                }
            }
            std::int64_t delta = 0;
            for (const std::uint32_t id : touched) {
                const std::size_t weight = subsetWeight(
                    subsets[id], assignment, x_masks, z_masks);
                new_weights.push_back(weight);
                delta += static_cast<std::int64_t>(
                             subsets[id].multiplicity) *
                         (static_cast<std::int64_t>(weight) -
                          static_cast<std::int64_t>(
                              subsets[id].currentWeight));
            }

            const bool accept =
                delta <= 0 ||
                rng.nextDouble() <
                    std::exp(-static_cast<double>(delta) /
                             temperature);
            if (accept) {
                ++result.accepted;
                energy = static_cast<std::size_t>(
                    static_cast<std::int64_t>(energy) + delta);
                for (std::size_t i = 0; i < touched.size(); ++i)
                    subsets[touched[i]].currentWeight =
                        new_weights[i];
                if (energy < best_energy) {
                    best_energy = energy;
                    best_assignment = assignment;
                }
            } else {
                std::swap(assignment[a], assignment[b]);
            }
            for (const std::uint32_t id : touched)
                seen[id] = 0;
        }
        temperature -= kTemperatureStep;
    }

    result.assignment = best_assignment;
    result.finalCost = best_energy;
    result.encoding.modes = modes;
    result.encoding.majoranas.resize(2 * modes);
    for (std::size_t j = 0; j < modes; ++j) {
        result.encoding.majoranas[2 * j] =
            base.majoranas[2 * best_assignment[j]];
        result.encoding.majoranas[2 * j + 1] =
            base.majoranas[2 * best_assignment[j] + 1];
    }
    return result;
}

} // namespace fermihedral::core
