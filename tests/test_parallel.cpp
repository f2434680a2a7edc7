/**
 * @file
 * Tests for the thread pool and the parallel trajectory engine:
 * forEach() must cover every index exactly once for any thread
 * count, and measureEnergy() must be bit-identical for 1..N
 * threads on a fixed seed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "circuit/pauli_compiler.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "encodings/linear.h"
#include "fermion/models.h"
#include "sim/exact.h"
#include "sim/noise.h"

namespace fermihedral {
namespace {

TEST(ThreadPool, HardwareConcurrencyIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(),
              ThreadPool::hardwareConcurrency());
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        const std::size_t count = 10000;
        std::vector<std::atomic<int>> hits(count);
        pool.forEach(count, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, MoreThreadsThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.forEach(3, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, EmptyLoopReturnsImmediately)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.forEach(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PoolIsReusableAcrossLoops)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int round = 0; round < 50; ++round)
        pool.forEach(100, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 50 * 100);
}

/** Small but non-trivial noisy workload: H2 under Bravyi-Kitaev. */
struct H2Workload
{
    pauli::PauliSum hamiltonian;
    circuit::Circuit circuit;
    sim::StateVector initial;

    H2Workload()
        : hamiltonian(enc::mapToQubits(
              fermion::h2Sto3gIntegrals().toHamiltonian(),
              enc::bravyiKitaev(4))),
          circuit(circuit::compileTrotter(hamiltonian, 1.0)),
          initial(sim::eigendecompose(hamiltonian).state(0))
    {
    }
};

TEST(ParallelMeasure, BitIdenticalAcrossThreadCounts)
{
    const H2Workload w;
    sim::NoiseModel noise;
    noise.singleQubitError = 1e-3;
    noise.twoQubitError = 1e-2;
    noise.readoutError = 1e-2;

    Rng rng1(424242);
    ThreadPool one(1);
    const auto serial = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 400, rng1, one);
    for (const std::size_t threads : {2u, 4u, 8u}) {
        Rng rngN(424242);
        ThreadPool pool(threads);
        const auto parallel = sim::measureEnergy(
            w.circuit, w.initial, w.hamiltonian, noise, 400, rngN,
            pool);
        // Bit-identical, not merely close: same forked stream per
        // shot and an order-fixed reduction.
        EXPECT_EQ(parallel.mean, serial.mean)
            << threads << " threads";
        EXPECT_EQ(parallel.standardDeviation,
                  serial.standardDeviation)
            << threads << " threads";
    }
}

TEST(ParallelMeasure, IdealFastPathBitIdenticalAcrossThreads)
{
    const H2Workload w;
    // Zero gate error but nonzero readout: exercises the
    // SampleTable fast path including its readout draws.
    sim::NoiseModel noise;
    noise.readoutError = 5e-3;

    Rng rng1(99);
    ThreadPool one(1);
    const auto serial = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 300, rng1, one);
    Rng rng8(99);
    ThreadPool eight(8);
    const auto parallel = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 300, rng8, eight);
    EXPECT_EQ(parallel.mean, serial.mean);
    EXPECT_EQ(parallel.standardDeviation, serial.standardDeviation);
}

TEST(ParallelMeasure, CallerRngAdvancesOncePerCall)
{
    // Two successive experiments from one Rng must differ (the
    // caller's generator advances), and reseeding must reproduce
    // the first experiment exactly.
    const H2Workload w;
    sim::NoiseModel noise;
    noise.twoQubitError = 1e-2;

    Rng rng(7);
    ThreadPool pool(2);
    const auto first = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 200, rng, pool);
    const auto second = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 200, rng, pool);
    EXPECT_NE(first.mean, second.mean);

    Rng reseeded(7);
    const auto repeat = sim::measureEnergy(
        w.circuit, w.initial, w.hamiltonian, noise, 200, reseeded,
        pool);
    EXPECT_EQ(repeat.mean, first.mean);
}

} // namespace
} // namespace fermihedral
