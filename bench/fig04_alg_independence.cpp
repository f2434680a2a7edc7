/**
 * @file
 * Figure 4: probability that n of the A_k algebraic-dependence
 * events (Eq. 15) hold simultaneously across sampled optimal
 * encodings — the numerical evidence for dropping the algebraic
 * independence clauses (Sec. 4.1). The paper finds P ~ 1/4^n,
 * independent of the mode count.
 */

#include <bit>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"

using namespace fermihedral;

namespace {

/**
 * For one encoding, estimate E over random subsets of
 * C(c, n)/C(N, n), where c is the number of qubit indices k whose
 * A_k event holds for the subset — i.e.\ the probability that n
 * fixed indices all hold.
 */
std::vector<double>
aEventProbabilities(const enc::FermionEncoding &encoding,
                    std::size_t max_n, Rng &rng,
                    std::size_t samples)
{
    const std::size_t strings = encoding.majoranas.size();
    const std::size_t qubits = encoding.numQubits();
    std::vector<double> sums(max_n + 1, 0.0);
    std::size_t counted = 0;

    const bool exhaustive = strings <= 14;
    const std::uint64_t subset_count =
        exhaustive ? ((std::uint64_t{1} << strings) - 1) : samples;

    for (std::uint64_t i = 1; i <= subset_count; ++i) {
        const std::uint64_t mask =
            exhaustive
                ? i
                : (rng.next() &
                   ((std::uint64_t{1} << strings) - 1));
        if (mask == 0)
            continue;
        // Count indices k with product == identity at k: xor of
        // symplectic bits is zero at that qubit.
        std::uint64_t x = 0, z = 0;
        std::uint64_t remaining = mask;
        while (remaining) {
            const int s = std::countr_zero(remaining);
            remaining &= remaining - 1;
            x ^= encoding.majoranas[s].xMask();
            z ^= encoding.majoranas[s].zMask();
        }
        const std::uint64_t identity_at = ~(x | z);
        std::size_t c = 0;
        for (std::size_t q = 0; q < qubits; ++q)
            c += (identity_at >> q) & 1;

        // E[C(c, n)] / C(N, n) accumulated per n.
        for (std::size_t n = 1; n <= max_n && n <= qubits; ++n) {
            double c_choose = 1.0, q_choose = 1.0;
            for (std::size_t j = 0; j < n; ++j) {
                c_choose *= c >= j ? double(c - j) : 0.0;
                q_choose *= double(qubits - j);
                c_choose /= double(j + 1);
                q_choose /= double(j + 1);
            }
            sums[n] += c_choose / q_choose;
        }
        ++counted;
    }
    std::vector<double> result(max_n + 1, 0.0);
    for (std::size_t n = 1; n <= max_n; ++n)
        result[n] = counted ? sums[n] / double(counted) : 0.0;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 4: probability of simultaneous A_k "
                  "dependence events.");
    const auto *max_modes =
        flags.addInt("max-modes", 5, "largest mode count");
    const auto *encodings_per_mode = flags.addInt(
        "samples", 12, "optimal encodings sampled per mode count");
    const auto *timeout =
        flags.addDouble("timeout", 30.0, "SAT budget per mode (s)");
    bench::EngineFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    bench::addProgressFlag(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("A_k dependence-event probabilities", "Figure 4");
    const std::size_t max_n = 5;
    Table table({"Modes", "n=1", "n=2", "n=3", "n=4", "n=5"});
    Rng rng(41);

    for (std::int64_t modes = 2; modes <= *max_modes; ++modes) {
        const auto options = bench::descentOptions(
            bench::Config::FullSat, *timeout / 2.0, *timeout);
        core::DescentSolver solver(
            static_cast<std::size_t>(modes), options);
        solver.solve();
        auto sampled = solver.enumerateOptimal(
            static_cast<std::size_t>(*encodings_per_mode),
            *timeout);
        if (sampled.empty())
            continue;

        std::vector<double> mean(max_n + 1, 0.0);
        for (const auto &encoding : sampled) {
            const auto p = aEventProbabilities(encoding, max_n,
                                               rng, 4096);
            for (std::size_t n = 1; n <= max_n; ++n)
                mean[n] += p[n];
        }
        std::vector<std::string> row = {Table::num(modes)};
        for (std::size_t n = 1; n <= max_n; ++n) {
            if (n > static_cast<std::size_t>(modes)) {
                row.push_back("-");
            } else {
                row.push_back(Table::num(
                    mean[n] / double(sampled.size()), 4));
            }
        }
        table.addRow(row);
    }
    std::printf("%s", table.render().c_str());
    std::printf("expected flat lines at 1/4^n: 0.25, 0.0625, "
                "0.0156, 0.0039, 0.0010\n");
    tflags.report();
    return 0;
}
