/**
 * @file
 * The fault-tolerance suite for the serving core: the failpoint
 * registry itself, deadline/cancellation degradation through the
 * Compiler and CompilerService, admission control and coalescing,
 * the CRC-guarded disk cache under injected write/read faults, and
 * a mixed-traffic stress run with several failpoints armed at once
 * (scaled by FERMIHEDRAL_FAULT_ITERATIONS; the CI fault-injection
 * job runs it 100 iterations under ASan/UBSan and archives
 * metricsJson via FERMIHEDRAL_FAULT_METRICS).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <unistd.h>

#include "api/serialize.h"
#include "api/service.h"
#include "api/strategy_registry.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "encodings/linear.h"

namespace fermihedral::api {
namespace {

CompilationRequest
fastRequest(std::size_t modes, const std::string &strategy)
{
    CompilationRequest request;
    request.modes = modes;
    request.strategy = strategy;
    request.stepTimeoutSeconds = 10.0;
    request.totalTimeoutSeconds = 30.0;
    return request;
}

/** A fresh scratch directory under the system temp path. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : dir(std::filesystem::temp_directory_path() /
              (std::string("fermihedral-") + tag + "-" +
               std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }

    ~TempDir() { std::filesystem::remove_all(dir); }

    std::string path() const { return dir.string(); }

  private:
    std::filesystem::path dir;
};

/** Spin (politely) until `predicate` holds; fail after 30 s. */
template <typename Predicate>
void
waitFor(Predicate &&predicate, const char *what)
{
    Timer timer;
    while (!predicate()) {
        if (timer.seconds() > 30.0) {
            FAIL() << "timed out waiting for: " << what;
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Shared control for the blocking test strategy below. */
struct BlockerControl
{
    std::atomic<int> entered{0};
    std::atomic<int> executions{0};
    std::atomic<bool> release{false};

    void
    reset()
    {
        entered = 0;
        executions = 0;
        release = false;
    }
};

BlockerControl &
blocker()
{
    static BlockerControl control;
    return control;
}

/**
 * A strategy that parks inside search() until released — the lever
 * the admission-control and coalescing tests use to hold the
 * dispatcher in a known state.
 */
class BlockingParityStrategy final : public EncodingStrategy
{
  public:
    SearchOutcome
    search(const CompilationRequest &request) const override
    {
        auto &control = blocker();
        control.entered.fetch_add(1);
        control.executions.fetch_add(1);
        while (!control.release.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        SearchOutcome outcome;
        outcome.encoding = enc::parity(request.resolvedModes());
        outcome.cost = outcome.encoding.totalWeight();
        outcome.baselineCost =
            enc::bravyiKitaev(request.resolvedModes())
                .totalWeight();
        return outcome;
    }
};

void
ensureBlockerRegistered()
{
    if (!strategyRegistered("test-blocker")) {
        registerStrategy("test-blocker", [] {
            return std::make_unique<BlockingParityStrategy>();
        });
    }
}

// --- the failpoint registry itself ---------------------------------

TEST(Failpoint, SpecsFireDeterministically)
{
    failpoint::disarmAll();
    EXPECT_FALSE(failpoint::fire("test.fp"));

    failpoint::arm("test.fp", "always");
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));

    failpoint::arm("test.fp", "once");
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));

    failpoint::arm("test.fp", "times:2");
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));

    failpoint::arm("test.fp", "after:2");
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));

    failpoint::arm("test.fp", "every:3");
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::fire("test.fp"));
    const auto counts = failpoint::counts("test.fp");
    EXPECT_EQ(counts.evaluations, 6u);
    EXPECT_EQ(counts.fires, 2u);

    failpoint::arm("test.fp", "off");
    EXPECT_FALSE(failpoint::fire("test.fp"));
    EXPECT_TRUE(failpoint::armedNames().empty());
}

TEST(Failpoint, SpecListsParseAndMalformedSpecsAreFatal)
{
    failpoint::disarmAll();
    failpoint::armFromSpec("a.b=once,c.d=every:2");
    EXPECT_EQ(failpoint::armedNames(),
              (std::vector<std::string>{"a.b", "c.d"}));
    EXPECT_THROW(failpoint::arm("x", "sometimes"), FatalError);
    EXPECT_THROW(failpoint::arm("x", "times:"), FatalError);
    EXPECT_THROW(failpoint::arm("x", "every:0"), FatalError);
    EXPECT_THROW(failpoint::armFromSpec("missing-equals"),
                 FatalError);
    failpoint::disarmAll();
    EXPECT_TRUE(failpoint::armedNames().empty());
}

// --- deadlines and cancellation ------------------------------------

TEST(ServiceFaults, PreCancelledRequestDegradesToBaseline)
{
    CompilerService service;
    CompilationRequest request = fastRequest(4, "sat");
    request.cancellation.requestCancel();
    const auto result = service.compile(request);
    EXPECT_EQ(result.status, ResultStatus::Cancelled);
    EXPECT_TRUE(result.validation.valid());
    EXPECT_EQ(result.encoding.majoranas,
              enc::bravyiKitaev(4).majoranas);
    EXPECT_EQ(result.satCalls, 0u);
    // The baseline answer never touched the cache.
    EXPECT_EQ(service.cacheStats().misses, 0u);
    EXPECT_EQ(service.serviceStats().cancelled, 1u);
}

TEST(ServiceFaults, CancellationStopsARunningSearch)
{
    CompilerService service;
    CompilationRequest request = fastRequest(6, "sat");
    request.stepTimeoutSeconds = 600.0;
    request.totalTimeoutSeconds = 600.0;
    const CancellationToken token = request.cancellation;

    Timer timer;
    auto future = service.submit(std::move(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.requestCancel();
    const auto result = future.get();
    // The 600 s budget must not run: the stop flag reaches the SAT
    // budget poll and the search returns its best-so-far encoding.
    EXPECT_EQ(result.status, ResultStatus::Cancelled);
    EXPECT_TRUE(result.validation.valid());
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_LT(timer.seconds(), 60.0);
    EXPECT_EQ(service.serviceStats().cancelled, 1u);
}

TEST(ServiceFaults, DeadlineDegradesAndNeverCaches)
{
    CompilerService service;
    CompilationRequest request = fastRequest(3, "sat");
    request.deadlineSeconds = 1e-9;
    const auto degraded = service.compile(request);
    EXPECT_EQ(degraded.status, ResultStatus::DeadlineExceeded);
    EXPECT_TRUE(degraded.validation.valid());
    EXPECT_LE(degraded.cost, degraded.baselineCost);
    EXPECT_FALSE(degraded.fromCache);
    EXPECT_EQ(service.serviceStats().degraded, 1u);

    // Degraded results are never cached: the same spec with a
    // healthy budget recomputes at full fidelity, and only that
    // result enters the cache.
    const auto healthy = service.compile(fastRequest(3, "sat"));
    EXPECT_EQ(healthy.status, ResultStatus::Ok);
    EXPECT_FALSE(healthy.fromCache);
    EXPECT_TRUE(service.compile(fastRequest(3, "sat")).fromCache);
}

TEST(ServiceFaults, DeadlineExpiresWhileQueued)
{
    ensureBlockerRegistered();
    blocker().reset();
    ServiceOptions options;
    options.threads = 1;
    options.cacheCapacity = 0;
    CompilerService service(options);

    auto blocked = service.submit(fastRequest(3, "test-blocker"));
    waitFor([] { return blocker().entered.load() >= 1; },
            "dispatcher to enter the blocking strategy");

    // The deadline clock starts at submit(); this request spends
    // more than its whole deadline behind the blocker.
    CompilationRequest request = fastRequest(3, "sat");
    request.deadlineSeconds = 0.05;
    auto future = service.submit(std::move(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    blocker().release = true;

    EXPECT_EQ(blocked.get().status, ResultStatus::Ok);
    const auto result = future.get();
    EXPECT_EQ(result.status, ResultStatus::DeadlineExceeded);
    EXPECT_NE(result.statusMessage.find("queued"),
              std::string::npos)
        << result.statusMessage;
    EXPECT_TRUE(result.validation.valid());
    EXPECT_EQ(result.satCalls, 0u);
}

TEST(ServiceFaults, DeadlineHitIsDeterministic)
{
    // Two identical deadline-bound runs in deterministic mode must
    // degrade to the same encoding — the anytime answer is part of
    // the deterministic contract, not a race artifact.
    Compiler compiler;
    CompilationRequest request = fastRequest(4, "sat");
    request.deadlineSeconds = 1e-9;
    request.deterministic = true;
    const auto first = compiler.compile(request);
    const auto second = compiler.compile(request);
    EXPECT_EQ(first.status, ResultStatus::DeadlineExceeded);
    EXPECT_EQ(second.status, ResultStatus::DeadlineExceeded);
    EXPECT_EQ(first.encoding.majoranas, second.encoding.majoranas);
    EXPECT_EQ(first.cost, second.cost);
}

TEST(ServiceFaults, DeadlineBoundedLargeRequestServesValidEncoding)
{
    // Fig. 7 scale: N = 6 takes minutes to prove optimal, but a
    // deadline-bound request must come back almost immediately with
    // a valid (baseline-or-better) encoding.
    Compiler compiler;
    CompilationRequest request = fastRequest(6, "sat");
    request.stepTimeoutSeconds = 60.0;
    request.totalTimeoutSeconds = 60.0;
    request.deadlineSeconds = 0.25;
    Timer timer;
    const auto result = compiler.compile(request);
    EXPECT_EQ(result.status, ResultStatus::DeadlineExceeded);
    EXPECT_TRUE(result.validation.valid());
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_LT(timer.seconds(), 30.0);
}

// --- admission control and coalescing ------------------------------

TEST(ServiceFaults, FullQueueShedsNewestRequest)
{
    ensureBlockerRegistered();
    blocker().reset();
    ServiceOptions options;
    options.threads = 1;
    options.cacheCapacity = 0;
    options.maxQueueDepth = 2;
    CompilerService service(options);

    // Hold the dispatcher inside the blocking strategy, then fill
    // the queue to its depth; the next submit must shed.
    auto blocked = service.submit(fastRequest(3, "test-blocker"));
    waitFor([] { return blocker().entered.load() >= 1; },
            "dispatcher to enter the blocking strategy");
    auto a = service.submit(fastRequest(3, "jordan-wigner"));
    auto b = service.submit(fastRequest(4, "jordan-wigner"));
    auto shed = service.submit(fastRequest(5, "jordan-wigner"));

    const auto shedResult = shed.get(); // ready immediately
    EXPECT_EQ(shedResult.status, ResultStatus::Shed);
    EXPECT_NE(shedResult.statusMessage.find("queue full"),
              std::string::npos)
        << shedResult.statusMessage;
    EXPECT_TRUE(shedResult.encoding.majoranas.empty());

    blocker().release = true;
    EXPECT_EQ(blocked.get().status, ResultStatus::Ok);
    EXPECT_EQ(a.get().status, ResultStatus::Ok);
    EXPECT_EQ(b.get().status, ResultStatus::Ok);

    const auto stats = service.serviceStats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.ok, 3u);
}

TEST(ServiceFaults, IdenticalInflightRequestsComputeOnce)
{
    ensureBlockerRegistered();
    blocker().reset();
    ServiceOptions options;
    options.threads = 4;
    CompilerService service(options);

    std::vector<std::future<CompilationResult>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(
            service.submit(fastRequest(4, "test-blocker")));
    waitFor([] { return blocker().entered.load() >= 1; },
            "a coalescing leader to start the search");
    // Give the followers time to attach to the in-flight leader
    // (or to land in a later batch and hit the cache — both fine).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    blocker().release = true;

    for (auto &future : futures) {
        const auto result = future.get();
        EXPECT_EQ(result.status, ResultStatus::Ok);
        EXPECT_EQ(result.encoding.majoranas,
                  enc::parity(4).majoranas);
    }
    // The acceptance bar: identical concurrent specs ran the
    // strategy exactly once; everyone else shared it.
    EXPECT_EQ(blocker().executions.load(), 1);
    EXPECT_EQ(service.cacheStats().misses, 1u);
    EXPECT_EQ(service.serviceStats().coalesced +
                  service.cacheStats().hits,
              3u);
    EXPECT_EQ(service.serviceStats().ok, 4u);
}

// --- the disk cache under injected faults --------------------------

TEST(ServiceFaults, TornWriteIsRejectedByCrcOnRead)
{
    failpoint::disarmAll();
    TempDir dir("fp-torn");
    ServiceOptions options;
    options.diskCachePath = dir.path();
    const auto request = fastRequest(2, "sat");

    failpoint::arm("service.cache.write.torn", "always");
    std::string cold;
    {
        CompilerService service(options);
        cold = serializeResult(service.compile(request));
    }
    failpoint::disarmAll();

    // The torn entry has an intact header and half a payload; the
    // CRC must reject it, the service recomputes and heals it.
    {
        CompilerService service(options);
        const auto recomputed = service.compile(request);
        EXPECT_FALSE(recomputed.fromCache);
        EXPECT_EQ(service.cacheStats().corrupted, 1u);
        EXPECT_EQ(serializeResult(recomputed), cold);
    }
    CompilerService fresh(options);
    EXPECT_TRUE(fresh.compile(request).fromCache);
}

TEST(ServiceFaults, InjectedDiskFullPublishesNothing)
{
    failpoint::disarmAll();
    TempDir dir("fp-enospc");
    ServiceOptions options;
    options.diskCachePath = dir.path();
    const auto request = fastRequest(2, "sat");

    failpoint::arm("service.cache.write.enospc", "always");
    {
        CompilerService service(options);
        EXPECT_EQ(service.compile(request).status,
                  ResultStatus::Ok);
    }
    failpoint::disarmAll();

    // No entry and no leftover temp file — the failed write left
    // the store exactly as it found it.
    std::size_t files = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 0u);
    CompilerService fresh(options);
    const auto recomputed = fresh.compile(request);
    EXPECT_FALSE(recomputed.fromCache);
    EXPECT_EQ(fresh.cacheStats().corrupted, 0u);
}

TEST(ServiceFaults, ReadCorruptionIsCountedAndHealed)
{
    failpoint::disarmAll();
    TempDir dir("fp-read");
    ServiceOptions options;
    options.diskCachePath = dir.path();
    const auto request = fastRequest(2, "sat");

    std::string cold;
    {
        CompilerService service(options);
        cold = serializeResult(service.compile(request));
    }
    failpoint::arm("service.cache.read.corrupt", "once");
    {
        CompilerService service(options);
        const auto recomputed = service.compile(request);
        EXPECT_FALSE(recomputed.fromCache);
        EXPECT_EQ(service.cacheStats().corrupted, 1u);
        EXPECT_EQ(serializeResult(recomputed), cold);
    }
    failpoint::disarmAll();
    CompilerService fresh(options);
    EXPECT_TRUE(fresh.compile(request).fromCache);
    EXPECT_EQ(fresh.cacheStats().corrupted, 0u);
}

// --- solver and dispatcher failpoints ------------------------------

TEST(ServiceFaults, ForcedBudgetExpiryStillYieldsAValidEncoding)
{
    failpoint::disarmAll();
    failpoint::arm("sat.budget.expire", "always");
    Compiler compiler;
    const auto result = compiler.compile(fastRequest(3, "sat"));
    failpoint::disarmAll();
    // Every SAT call returned Unknown instantly; without a deadline
    // that is just an exhausted budget — an anytime Ok answer.
    EXPECT_EQ(result.status, ResultStatus::Ok);
    EXPECT_TRUE(result.validation.valid());
    EXPECT_LE(result.cost, result.baselineCost);
}

TEST(ServiceFaults, DispatchFailpointSurfacesAsErrorResult)
{
    failpoint::disarmAll();
    failpoint::arm("service.dispatch.fail", "always");
    CompilerService service;
    auto future = service.submit(fastRequest(3, "jordan-wigner"));
    const auto result = future.get();
    failpoint::disarmAll();
    EXPECT_EQ(result.status, ResultStatus::Error);
    EXPECT_NE(result.statusMessage.find("service.dispatch.fail"),
              std::string::npos)
        << result.statusMessage;
    EXPECT_EQ(service.serviceStats().errors, 1u);
}

// --- mixed traffic under several armed failpoints ------------------

TEST(ServiceFaults, MixedTrafficUnderArmedFailpointsStaysConsistent)
{
    failpoint::disarmAll();
    TempDir dir("fp-stress");
    ServiceOptions options;
    options.threads = 4;
    options.cacheCapacity = 8;
    options.diskCachePath = dir.path();
    options.maxQueueDepth = 32;

    failpoint::armFromSpec(
        "service.cache.write.torn=every:3,"
        "service.cache.write.enospc=every:5,"
        "service.cache.read.corrupt=every:4,"
        "service.dispatch.fail=every:7,"
        "sat.budget.expire=every:50");

    std::size_t iterations = 10;
    if (const char *env =
            std::getenv("FERMIHEDRAL_FAULT_ITERATIONS"))
        iterations = static_cast<std::size_t>(
            std::strtoul(env, nullptr, 10));

    const char *closedForm[] = {"jordan-wigner", "bravyi-kitaev",
                                "parity", "ternary-tree"};
    std::size_t ok = 0, deadline = 0, cancelled = 0, shed = 0,
                errors = 0;
    std::size_t submitted = 0;
    {
        CompilerService service(options);
        std::vector<std::future<CompilationResult>> futures;
        for (std::size_t i = 0; i < iterations; ++i) {
            // Warm/cold closed-form churn across a few specs.
            futures.push_back(service.submit(
                fastRequest(3 + i % 4, closedForm[i % 4])));
            // A SAT request under a tight (sometimes impossible)
            // deadline.
            CompilationRequest bounded =
                fastRequest(2 + i % 2, "sat");
            bounded.stepTimeoutSeconds = 0.2;
            bounded.totalTimeoutSeconds = 0.2;
            bounded.deadlineSeconds = (i % 3 == 0) ? 1e-6 : 0.15;
            futures.push_back(service.submit(std::move(bounded)));
            // A request cancelled before it ever runs.
            CompilationRequest dropped = fastRequest(3, "sat");
            dropped.stepTimeoutSeconds = 0.2;
            dropped.totalTimeoutSeconds = 0.2;
            dropped.cancellation.requestCancel();
            futures.push_back(service.submit(std::move(dropped)));
            // A synchronous caller-thread compile interleaved with
            // the async traffic — never shed, and it keeps the
            // cache (and its armed failpoints) busy even when the
            // queue is rejecting.
            const auto sync = service.compile(fastRequest(
                3 + (i + 1) % 4, closedForm[(i + 1) % 4]));
            EXPECT_NE(sync.status, ResultStatus::Shed);
            switch (sync.status) {
              case ResultStatus::Ok: ++ok; break;
              case ResultStatus::DeadlineExceeded:
                  ++deadline;
                  break;
              case ResultStatus::Cancelled: ++cancelled; break;
              case ResultStatus::Shed: ++shed; break;
              case ResultStatus::Error: ++errors; break;
            }
        }
        submitted = futures.size() + iterations;

        for (auto &future : futures) {
            const auto result = future.get(); // must never throw
            switch (result.status) {
              case ResultStatus::Ok: ++ok; break;
              case ResultStatus::DeadlineExceeded:
                  ++deadline;
                  break;
              case ResultStatus::Cancelled: ++cancelled; break;
              case ResultStatus::Shed: ++shed; break;
              case ResultStatus::Error: ++errors; break;
            }
            if (result.status == ResultStatus::Shed) {
                EXPECT_TRUE(result.encoding.majoranas.empty());
            } else if (result.status == ResultStatus::Error) {
                EXPECT_NE(result.statusMessage.find(
                              "service.dispatch.fail"),
                          std::string::npos)
                    << result.statusMessage;
            } else {
                // Ok and every degraded status still carry a
                // valid encoding.
                EXPECT_TRUE(result.validation.valid())
                    << resultStatusName(result.status);
            }
        }

        // Per-status accounting closes: every accepted request is
        // counted exactly once, under exactly its final status.
        const auto stats = service.serviceStats();
        EXPECT_EQ(stats.submitted, submitted);
        EXPECT_EQ(stats.ok, ok);
        EXPECT_EQ(stats.deadlineExceeded, deadline);
        EXPECT_EQ(stats.cancelled, cancelled);
        EXPECT_EQ(stats.shed, shed);
        EXPECT_EQ(stats.errors, errors);
        EXPECT_EQ(stats.ok + stats.deadlineExceeded +
                      stats.cancelled + stats.shed + stats.errors,
                  submitted);
    }
    failpoint::disarmAll();

    // The store was bombarded with torn and failed writes, but the
    // published files are all real entries (no temp leftovers) and
    // a fresh service serves every spec at full fidelity — torn
    // entries are rejected by the CRC and recomputed, silently.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path()))
        EXPECT_EQ(entry.path().extension(), ".fhc")
            << entry.path();
    CompilerService fresh(options);
    for (std::size_t i = 0; i < 4; ++i) {
        const auto healthy =
            fresh.compile(fastRequest(3 + i, closedForm[i]));
        EXPECT_EQ(healthy.status, ResultStatus::Ok);
        EXPECT_TRUE(healthy.validation.valid());
    }

    // CI archives the telemetry snapshot for the run.
    if (const char *path =
            std::getenv("FERMIHEDRAL_FAULT_METRICS")) {
        std::ofstream file(path);
        file << CompilerService::metricsJson() << "\n";
    }
}

} // namespace
} // namespace fermihedral::api
