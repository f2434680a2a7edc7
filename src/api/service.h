/**
 * @file
 * CompilerService: the serving layer on top of the Compiler facade
 * — batch/async submission onto the service's own queue and fixed
 * set of worker threads, plus a content-addressed encoding cache
 * (in-memory LRU, optional on-disk store), so repeated requests
 * for an already-solved (modes, objective, constraints) spec skip
 * the SAT search entirely. On top of that sits the fault-tolerant
 * serving core: per-request deadlines and cancellation, graceful
 * degradation to best-so-far encodings (typed ResultStatus instead
 * of exceptions), bounded-queue admission control with
 * reject-newest load shedding, and in-flight coalescing of
 * identical concurrent specs.
 *
 * Cache identity. canonicalRequestKey() renders the parts of a
 * request the built-in strategies' searches consume: strategy name,
 * resolved objective, mode count, constraint toggles, and — for
 * Hamiltonian-dependent objectives — the Eq. 14 cost structure
 * (Majorana subset masks with multiplicities). A routed-cost
 * objective additionally renders the topology's canonical edge
 * list and, with a Hamiltonian, a hash of the raw terms (the
 * routed strategies route the mapped Trotter circuit, which the
 * structure masks alone do not determine). Execution knobs
 * (budgets, deadline, cancellation, threads, determinism,
 * preprocessing) are deliberately NOT part of the identity: once a
 * spec is solved, later requests reuse the encoding whatever budget
 * they carried. A custom strategy whose search depends on data
 * outside the key (e.g.\ raw term coefficients) should run with
 * caching disabled (cacheCapacity = 0 and no disk path).
 *
 * Failure model (docs/ARCHITECTURE.md, "Failure model"):
 *  - compile()/submit() return a CompilationResult for every
 *    accepted request; result.status says how it ended. Degraded
 *    results (DeadlineExceeded, Cancelled) still carry a valid
 *    encoding — at worst the closed-form Bravyi-Kitaev baseline —
 *    and are never cached. Shed results carry no encoding.
 *  - Requests api::requestDiagnostic rejects (unknown strategy,
 *    objective or topology mismatch) are fatal at
 *    compile()/submit() validation, on the caller's thread, with
 *    the diagnostic Compiler::compile raises. Every post-validation
 *    failure surfaces as ResultStatus::Error through the returned
 *    result/future — never an exception from future.get(), never
 *    abort().
 *  - On-disk entries are CRC-checked (format v2); torn, truncated,
 *    zero-length, bit-flipped or version-mismatched entries are
 *    counted (CacheStats::corrupted), treated as misses, then
 *    overwritten by the recomputed entry.
 *
 * Key invariants:
 *  - A cache hit reproduces the original CompilationResult
 *    bit-identically in every serialized field (the stored payload
 *    is the SearchOutcome; mapping and grouping are re-derived
 *    deterministically) with fromCache = true and no strategy
 *    execution — cacheStats().misses does not move. Only Ok
 *    outcomes are ever stored.
 *  - submit() never runs work on the caller's thread; tasks are
 *    pulled one at a time by a fixed set of worker threads, so a
 *    long-running compilation occupies one worker and never
 *    head-of-line blocks later submissions — the property the
 *    daemon's pipelined out-of-order responses rest on.
 *  - Identical requests in flight at the same moment are
 *    coalesced: the first becomes the leader and runs the search,
 *    the rest block on its outcome and assemble their own results
 *    from it (ServiceStats::coalesced counts the followers). Only
 *    an Ok outcome is shared: when the leader degrades (its own
 *    deadline or cancellation), each follower is served again
 *    under its own deadline and token.
 *    Leaders never wait on followers, so coalescing cannot
 *    deadlock the pool; disk entries are published by atomic
 *    rename, so none is ever torn.
 *  - With maxQueueDepth > 0, submit() sheds the newest request
 *    once the queue is full: the returned future is immediately
 *    ready with ResultStatus::Shed and no work is queued.
 *  - The destructor drains every submitted task before returning,
 *    so futures obtained from submit() never dangle.
 */

#ifndef FERMIHEDRAL_API_SERVICE_H
#define FERMIHEDRAL_API_SERVICE_H

#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/compiler.h"
#include "common/parallel.h"

namespace fermihedral::api {

/** Configuration of a CompilerService. */
struct ServiceOptions
{
    /**
     * Threads compiling submitted requests concurrently
     * (0 = hardware concurrency).
     */
    std::size_t threads = 1;

    /** In-memory LRU capacity in entries (0 disables it). */
    std::size_t cacheCapacity = 256;

    /**
     * Directory for the on-disk encoding store (one file per
     * canonical key hash). Empty disables persistence; the
     * directory is created on first write.
     */
    std::string diskCachePath;

    /**
     * Fan the store over this many hashed subdirectories
     * (`<shard>/<hash>.fhc`, shard = key hash mod N in lowercase
     * hex). 0 keeps the flat single-directory layout. Sharding
     * bounds per-directory entry counts for large warmed libraries;
     * changing the count orphans existing entries (they re-compute
     * and re-store under the new layout — see docs/OPERATIONS.md).
     */
    std::size_t diskCacheShards = 0;

    /**
     * Admission control: maximum requests waiting in the submit
     * queue (0 = unbounded). When the queue is full, submit()
     * rejects the newest request with ResultStatus::Shed instead
     * of queueing it — bounded memory and bounded queueing delay
     * under overload.
     */
    std::size_t maxQueueDepth = 0;
};

/** Cache behaviour counters. */
struct CacheStats
{
    /** Requests answered from the cache (memory or disk). */
    std::size_t hits = 0;
    /** Hits served by parsing an on-disk entry. */
    std::size_t diskHits = 0;
    /** Requests that had to run the strategy. */
    std::size_t misses = 0;
    /** Entries written into the in-memory LRU. */
    std::size_t insertions = 0;
    /** LRU entries discarded for capacity. */
    std::size_t evictions = 0;
    /** On-disk entries rejected as corrupted or mismatched. */
    std::size_t corrupted = 0;
};

/**
 * Per-status serving counters (this service instance only; the
 * process-wide equivalents live in the telemetry registry under
 * service.ok / service.deadline_exceeded / service.cancelled /
 * service.shed / service.errors / service.coalesced).
 */
struct ServiceStats
{
    /** Requests accepted by compile()/submit(), shed included. */
    std::size_t submitted = 0;
    /** Results returned, by final status. */
    std::size_t ok = 0;
    std::size_t deadlineExceeded = 0;
    std::size_t cancelled = 0;
    std::size_t shed = 0;
    std::size_t errors = 0;
    /** Followers that shared an in-flight leader's search. */
    std::size_t coalesced = 0;
    /** Non-Ok search outcomes (computed but never cached). */
    std::size_t degraded = 0;
};

/** What verifyEncodingStore() found on disk. */
struct StoreVerification
{
    /** `.fhc` files scanned (all shard layouts). */
    std::size_t entries = 0;
    /** Entries whose CRC, key echo, or payload failed to check. */
    std::size_t corrupted = 0;
    /** Total bytes across scanned entries. */
    std::size_t bytes = 0;
};

/**
 * Offline CRC audit of an on-disk encoding store: scan every
 * `.fhc` entry under `path` (flat and sharded layouts alike),
 * re-check the v2 header CRC against the payload and re-parse the
 * stored outcome. Read-only — corrupted entries are reported, not
 * deleted (the serving path already treats them as misses and
 * overwrites them on the next compute). A missing directory is an
 * empty store, not an error.
 */
StoreVerification verifyEncodingStore(const std::string &path);

/** The cached, batching compilation service (see file docs). */
class CompilerService
{
  public:
    explicit CompilerService(const ServiceOptions &options = {});
    ~CompilerService();

    CompilerService(const CompilerService &) = delete;
    CompilerService &operator=(const CompilerService &) = delete;

    /**
     * Compile synchronously on the caller's thread, consulting the
     * cache first. Thread-safe. Requests requestDiagnostic rejects
     * are fatal; any later failure comes back as
     * ResultStatus::Error.
     */
    CompilationResult compile(const CompilationRequest &request);

    /**
     * Enqueue a request for asynchronous compilation on the
     * service's thread pool. The request is validated here (fatal
     * when requestDiagnostic rejects it); all later failures surface
     * through the returned future as ResultStatus::Error results —
     * future.get() never throws. A full queue (maxQueueDepth)
     * returns an immediately-ready ResultStatus::Shed result.
     */
    std::future<CompilationResult> submit(CompilationRequest request);

    /** Submit every request, wait for all, return in order. */
    std::vector<CompilationResult> compileBatch(
        std::vector<CompilationRequest> requests);

    /** Snapshot of the cache counters. */
    CacheStats cacheStats() const;

    /** Snapshot of the per-status serving counters. */
    ServiceStats serviceStats() const;

    /** The counters as a single-line JSON object (CI artifacts). */
    std::string cacheStatsJson() const;

    /**
     * The process-wide telemetry registry rendered as one JSON
     * object (common/telemetry.h) — queue depth, submit-to-complete
     * latency percentiles, per-strategy compile counters, cache
     * counters, shed/cancel/coalesce counters, solver counters. The
     * deployable-service metrics endpoint the roadmap asks for.
     */
    static std::string metricsJson();

    /**
     * The canonical cache identity of a request (see file docs).
     * Deterministic, space-free, human-readable.
     */
    static std::string canonicalRequestKey(
        const CompilationRequest &request);

  private:
    struct CacheEntry
    {
        std::string key;
        SearchOutcome outcome;
    };
    using LruList = std::list<CacheEntry>;

    /** One in-flight search shared by coalesced requests. */
    struct InflightSearch
    {
        std::promise<std::shared_ptr<const SearchOutcome>> promise;
        std::shared_future<std::shared_ptr<const SearchOutcome>>
            future;
    };

    /** Cache lookup (memory, then disk). nullopt = miss. */
    std::optional<SearchOutcome> lookup(const std::string &key);

    /** Insert into the LRU (and the disk store when configured). */
    void store(const std::string &key, const SearchOutcome &outcome);

    /** LRU insert + capacity eviction; cacheMutex must be held. */
    void insertLocked(const std::string &key,
                      const SearchOutcome &outcome);

    std::string diskEntryPath(const std::string &key) const;

    /** compileImpl with every failure folded into an Error result. */
    CompilationResult guardedCompile(
        const CompilationRequest &request, double submitted,
        bool waited);

    /**
     * The full serve path: cache, deadline, coalesce, search.
     * `submitted` is the Timer::nowSeconds() instant the request's
     * deadline runs from; `waited` says it waited in the submit
     * queue or on a coalesced leader, and with its deadline gone
     * it is served the baseline without a search.
     */
    CompilationResult compileImpl(const CompilationRequest &request,
                                  double submitted, bool waited);

    /** Assemble + per-status accounting for a finished outcome. */
    CompilationResult finishResult(const CompilationRequest &request,
                                   const SearchOutcome &outcome);

    /** Bump the per-status counters (instance + telemetry). */
    void recordStatus(ResultStatus status);

    void workerLoop();

    ServiceOptions options;

    mutable std::mutex cacheMutex;
    LruList lru;
    std::unordered_map<std::string, LruList::iterator> lruIndex;
    CacheStats stats;
    ServiceStats serving;

    std::mutex inflightMutex;
    std::unordered_map<std::string, std::shared_ptr<InflightSearch>>
        inflight;

    std::mutex queueMutex;
    std::condition_variable queueCv;
    std::deque<std::packaged_task<CompilationResult()>> queue;
    bool stopping = false;
    std::vector<std::thread> workers;
};

} // namespace fermihedral::api

#endif // FERMIHEDRAL_API_SERVICE_H
