#include "api/service.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/serialize.h"
#include "api/strategy_registry.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace fermihedral::api {

namespace {

/** The service's registry handles (allocated on first use). */
struct ServiceMetrics
{
    telemetry::Counter &cacheHits;
    telemetry::Counter &cacheMisses;
    telemetry::Counter &cacheCorrupted;
    telemetry::Counter &ok;
    telemetry::Counter &deadlineExceeded;
    telemetry::Counter &cancelled;
    telemetry::Counter &shed;
    telemetry::Counter &errors;
    telemetry::Counter &coalesced;
    telemetry::Gauge &queueDepth;
    telemetry::Histogram &latencySeconds;

    static ServiceMetrics &
    get()
    {
        auto &registry = telemetry::MetricsRegistry::global();
        static ServiceMetrics metrics{
            registry.counter("service.cache.hits"),
            registry.counter("service.cache.misses"),
            registry.counter("service.cache.corrupted"),
            registry.counter("service.ok"),
            registry.counter("service.deadline_exceeded"),
            registry.counter("service.cancelled"),
            registry.counter("service.shed"),
            registry.counter("service.errors"),
            registry.counter("service.coalesced"),
            registry.gauge("service.queue_depth"),
            registry.histogram("service.latency_seconds"),
        };
        return metrics;
    }
};

/** FNV-1a 64-bit hash of the canonical key (file names). */
std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

/** The disk-entry header prefix (format v2: CRC over the rest). */
constexpr std::string_view cacheHeaderPrefix =
    "fermihedral-cache v2 crc32 ";

/**
 * Validate a disk entry's v2 header and CRC. Returns the payload
 * after the header (the `key` echo line plus the serialized
 * outcome), or nullopt for anything torn, truncated, bit-flipped
 * or version-mismatched.
 */
std::optional<std::string_view>
checkedCachePayload(std::string_view view)
{
    if (view.substr(0, cacheHeaderPrefix.size()) !=
            cacheHeaderPrefix ||
        view.size() <= cacheHeaderPrefix.size() + 8 ||
        view[cacheHeaderPrefix.size() + 8] != '\n')
        return std::nullopt;
    std::uint32_t expected_crc = 0;
    for (const char c : view.substr(cacheHeaderPrefix.size(), 8)) {
        expected_crc <<= 4;
        if (c >= '0' && c <= '9')
            expected_crc |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            expected_crc |= static_cast<std::uint32_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    const std::string_view payload =
        view.substr(cacheHeaderPrefix.size() + 9);
    if (crc32(payload) != expected_crc)
        return std::nullopt;
    return payload;
}

/**
 * Caller errors stay fatal on the caller's thread: an unknown
 * strategy (with the nearest-name suggestion) or a request
 * Compiler::compile would reject. Everything past this check
 * degrades to a ResultStatus instead of throwing.
 */
void
rejectCallerErrors(const CompilationRequest &request)
{
    makeStrategy(request.strategy);
    if (const std::string why = requestDiagnostic(request);
        !why.empty())
        fatal(why);
}

} // namespace

StoreVerification
verifyEncodingStore(const std::string &path)
{
    StoreVerification report;
    std::error_code ec;
    if (path.empty() || !std::filesystem::is_directory(path, ec))
        return report;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(path, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".fhc")
            continue;
        ++report.entries;
        std::ifstream file(entry.path(), std::ios::binary);
        std::ostringstream content;
        content << file.rdbuf();
        const std::string text = std::move(content).str();
        report.bytes += text.size();

        bool intact = false;
        if (const auto payload = checkedCachePayload(text)) {
            // Without the original request we cannot re-derive the
            // expected key, but the echo line must be present and
            // the stored outcome must still parse.
            const std::size_t eol = payload->find('\n');
            intact = payload->substr(0, 4) == "key " &&
                     eol != std::string_view::npos &&
                     tryParseOutcome(payload->substr(eol + 1))
                         .has_value();
        }
        if (!intact) {
            ++report.corrupted;
            warn("encoding store: corrupted entry '",
                 entry.path().string(), "'");
        }
    }
    return report;
}

std::string
CompilerService::canonicalRequestKey(
    const CompilationRequest &request)
{
    const Objective objective = request.resolvedObjective();
    std::ostringstream key;
    key << "v1|strategy=" << request.strategy
        << "|objective=" << objectiveName(objective)
        << "|modes=" << request.resolvedModes()
        << "|alg=" << (request.algebraicIndependence ? 1 : 0)
        << "|vac=" << (request.vacuumPreservation ? 1 : 0);
    if (objective == Objective::HamiltonianWeight ||
        (objective == Objective::RoutedCost &&
         request.hamiltonian)) {
        key << "|structure=" << std::hex;
        bool first = true;
        for (const auto &subset :
             fermion::majoranaStructure(*request.hamiltonian)) {
            key << (first ? "" : ",") << subset.mask << 'x'
                << subset.multiplicity;
            first = false;
        }
        key << std::dec;
    }
    if (objective == Objective::RoutedCost) {
        // The graph itself, not the spec that built it: two specs
        // naming the same connectivity must share an entry.
        key << "|topology=" << request.topology->edgesSpec();
        if (request.hamiltonian) {
            // The routed strategies route the mapped Trotter
            // circuit, which depends on the raw term coefficients
            // — not just the Eq. 14 structure — so the identity
            // must hash them too.
            std::ostringstream terms;
            terms << std::hexfloat;
            for (const auto &term :
                 request.hamiltonian->fermionTerms()) {
                terms << 'f' << term.coefficient;
                for (const auto &op : term.ops)
                    terms << (op.creation ? '+' : '-') << op.mode;
            }
            for (const auto &term :
                 request.hamiltonian->majoranaTerms()) {
                terms << 'm' << term.coefficient;
                for (const auto index : term.indices)
                    terms << ':' << index;
            }
            key << "|hterms=" << std::hex
                << fnv1a64(terms.str()) << std::dec;
        }
    }
    return key.str();
}

CompilerService::CompilerService(const ServiceOptions &options)
    : options(options)
{
    const std::size_t count = ThreadPool::resolveThreadCount(
        static_cast<std::int64_t>(options.threads));
    workers.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

CompilerService::~CompilerService()
{
    {
        std::lock_guard lock(queueMutex);
        stopping = true;
    }
    queueCv.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

std::string
CompilerService::diskEntryPath(const std::string &key) const
{
    const std::uint64_t hash = fnv1a64(key);
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.fhc",
                  static_cast<unsigned long long>(hash));
    std::filesystem::path path(options.diskCachePath);
    if (options.diskCacheShards > 0) {
        // Sharded layout: <store>/<hash mod N as %02x>/<hash>.fhc.
        char shard[17]; // room for any 64-bit value in hex
        std::snprintf(shard, sizeof shard, "%02llx",
                      static_cast<unsigned long long>(
                          hash % options.diskCacheShards));
        path /= shard;
    }
    return (path / name).string();
}

std::optional<SearchOutcome>
CompilerService::lookup(const std::string &key)
{
    {
        std::lock_guard lock(cacheMutex);
        const auto it = lruIndex.find(key);
        if (it != lruIndex.end()) {
            lru.splice(lru.begin(), lru, it->second);
            ++stats.hits;
            ServiceMetrics::get().cacheHits.add();
            return it->second->outcome;
        }
    }
    if (options.diskCachePath.empty())
        return std::nullopt;

    const std::string path = diskEntryPath(key);
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return std::nullopt;
    std::ostringstream content;
    content << file.rdbuf();
    std::string text = std::move(content).str();
    // Failpoint: corrupt the bytes just read, as a bad sector (or
    // a non-atomic concurrent writer) would.
    if (failpoint::fire("service.cache.read.corrupt") &&
        !text.empty())
        text[text.size() / 2] =
            static_cast<char>(text[text.size() / 2] ^ 0x20);

    // Format v2: a header carrying a CRC32 over the remainder,
    // then the canonical-key echo (guards corruption and
    // improbable hash collisions), then the outcome. Anything else
    // — truncated, zero-length, bit-flipped, or a pre-CRC v1 entry
    // — counts as corrupted and reads as a miss.
    std::optional<SearchOutcome> outcome;
    if (const auto payload = checkedCachePayload(text)) {
        const std::string expected_key = "key " + key + "\n";
        if (payload->substr(0, expected_key.size()) == expected_key)
            outcome = tryParseOutcome(
                payload->substr(expected_key.size()));
    }
    std::lock_guard lock(cacheMutex);
    if (!outcome) {
        ++stats.corrupted;
        ServiceMetrics::get().cacheCorrupted.add();
        return std::nullopt;
    }
    ++stats.hits;
    ++stats.diskHits;
    ServiceMetrics::get().cacheHits.add();
    // Promote into the LRU so later hits skip the disk read.
    insertLocked(key, *outcome);
    return outcome;
}

void
CompilerService::insertLocked(const std::string &key,
                              const SearchOutcome &outcome)
{
    if (options.cacheCapacity == 0 ||
        lruIndex.find(key) != lruIndex.end())
        return;
    lru.push_front(CacheEntry{key, outcome});
    lruIndex.emplace(key, lru.begin());
    ++stats.insertions;
    while (lru.size() > options.cacheCapacity) {
        lruIndex.erase(lru.back().key);
        lru.pop_back();
        ++stats.evictions;
    }
}

void
CompilerService::store(const std::string &key,
                       const SearchOutcome &outcome)
{
    {
        std::lock_guard lock(cacheMutex);
        insertLocked(key, outcome);
    }
    if (options.diskCachePath.empty())
        return;
    const std::string path = diskEntryPath(key);
    std::error_code ec;
    // Covers the shard subdirectory too when sharding is on.
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    if (ec) {
        warn("encoding cache: cannot create '",
             options.diskCachePath, "': ", ec.message());
        return;
    }
    // Format v2: the header's CRC32 covers everything after it, so
    // a torn or bit-flipped entry is rejected on read even when
    // the text would still parse.
    std::string payload = "key " + key + "\n";
    payload += serializeOutcome(outcome);
    char header[48];
    std::snprintf(header, sizeof header,
                  "fermihedral-cache v2 crc32 %08x\n",
                  crc32(payload));
    // Failpoint: a torn write publishes a truncated payload under
    // an intact header; the read-side CRC must catch it.
    if (failpoint::fire("service.cache.write.torn"))
        payload.resize(payload.size() / 2);
    // Write-temp-then-rename: concurrent stores of the same key
    // (two pool threads computing identical requests) each land a
    // complete file; the rename is atomic, so readers never see a
    // torn entry.
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp."
             << std::hash<std::thread::id>{}(
                    std::this_thread::get_id());
    {
        std::ofstream file(tmp_name.str(),
                           std::ios::binary | std::ios::trunc);
        if (!file) {
            warn("encoding cache: cannot write '", tmp_name.str(),
                 "'");
            return;
        }
        // Failpoint: the write fails mid-entry (disk full); no
        // entry may be published and the tmp file is cleaned up.
        if (failpoint::fire("service.cache.write.enospc")) {
            file.close();
            std::error_code rm;
            std::filesystem::remove(tmp_name.str(), rm);
            warn("encoding cache: cannot write '", tmp_name.str(),
                 "' (injected ENOSPC)");
            return;
        }
        file << header << payload;
    }
    std::filesystem::rename(tmp_name.str(), path, ec);
    if (ec)
        warn("encoding cache: cannot publish '", path, "': ",
             ec.message());
}

CompilationResult
CompilerService::compile(const CompilationRequest &request)
{
    rejectCallerErrors(request);
    {
        std::lock_guard lock(cacheMutex);
        ++serving.submitted;
    }
    return guardedCompile(request, 0.0);
}

CompilationResult
CompilerService::guardedCompile(const CompilationRequest &request,
                                double queue_wait_seconds)
{
    try {
        return compileImpl(request, queue_wait_seconds);
    } catch (const std::exception &error) {
        CompilationResult result;
        result.strategy = request.strategy;
        result.status = ResultStatus::Error;
        result.statusMessage = error.what();
        recordStatus(ResultStatus::Error);
        return result;
    } catch (...) {
        CompilationResult result;
        result.strategy = request.strategy;
        result.status = ResultStatus::Error;
        result.statusMessage = "unknown failure";
        recordStatus(ResultStatus::Error);
        return result;
    }
}

CompilationResult
CompilerService::finishResult(const CompilationRequest &request,
                              const SearchOutcome &outcome)
{
    CompilationResult result = Compiler::assemble(request, outcome);
    recordStatus(result.status);
    return result;
}

CompilationResult
CompilerService::compileImpl(const CompilationRequest &request,
                             double queue_wait_seconds)
{
    telemetry::TraceSpan span("service.compile");
    if (span.active())
        span.arg("strategy", request.strategy);
    const std::string key = canonicalRequestKey(request);
    // The cache is consulted before the deadline: a warm hit is
    // effectively free, so it is served full-fidelity even when
    // the request over-waited in the queue.
    if (auto cached = lookup(key)) {
        CompilationResult result = finishResult(request, *cached);
        result.fromCache = true;
        if (span.active())
            span.arg("cached", true);
        return result;
    }

    // A deadline keeps ticking while the request waits in the
    // submit queue; a request that spent its whole deadline queued
    // degrades to the closed-form baseline without searching.
    double remaining_deadline = request.deadlineSeconds;
    if (request.deadlineSeconds > 0.0) {
        remaining_deadline =
            request.deadlineSeconds - queue_wait_seconds;
        if (remaining_deadline <= 0.0)
            return finishResult(
                request,
                baselineOutcome(request,
                                ResultStatus::DeadlineExceeded,
                                "deadline expired while queued"));
    }
    if (request.cancellation.cancelled())
        return finishResult(
            request,
            baselineOutcome(request, ResultStatus::Cancelled,
                            "cancelled before the search started"));

    // Coalescing: the first request in becomes the leader and runs
    // the search; identical concurrent specs wait for its outcome
    // instead of duplicating the SAT work.
    std::shared_ptr<InflightSearch> entry;
    bool leader = false;
    {
        std::lock_guard lock(inflightMutex);
        auto [it, inserted] = inflight.try_emplace(key);
        if (inserted) {
            it->second = std::make_shared<InflightSearch>();
            it->second->future =
                it->second->promise.get_future().share();
            leader = true;
        }
        entry = it->second;
    }
    if (!leader) {
        {
            std::lock_guard lock(cacheMutex);
            ++serving.coalesced;
        }
        ServiceMetrics::get().coalesced.add();
        if (span.active())
            span.arg("coalesced", true);
        // A follower only ever waits for a leader that is already
        // running (or done) — never the other way round — so
        // coalescing cannot deadlock the pool. A leader failure
        // rethrows here and guardedCompile converts it.
        const auto shared = entry->future.get();
        CompilationResult result = finishResult(request, *shared);
        result.coalesced = true;
        return result;
    }

    Timer timer;
    std::shared_ptr<SearchOutcome> outcome;
    try {
        const auto strategy = makeStrategy(request.strategy);
        if (remaining_deadline != request.deadlineSeconds) {
            // Shrink the deadline by the time already queued. The
            // copy is only taken on this (deadline-carrying) path.
            CompilationRequest effective = request;
            effective.deadlineSeconds = remaining_deadline;
            outcome = std::make_shared<SearchOutcome>(
                strategy->search(effective));
        } else {
            outcome = std::make_shared<SearchOutcome>(
                strategy->search(request));
        }
    } catch (...) {
        {
            std::lock_guard lock(inflightMutex);
            inflight.erase(key);
        }
        entry->promise.set_exception(std::current_exception());
        throw;
    }
    const double search_seconds = timer.seconds();
    entry->promise.set_value(outcome);
    {
        std::lock_guard lock(inflightMutex);
        inflight.erase(key);
    }

    {
        std::lock_guard lock(cacheMutex);
        ++stats.misses;
        if (outcome->status != ResultStatus::Ok)
            ++serving.degraded;
    }
    ServiceMetrics::get().cacheMisses.add();
    // Per-strategy compile counter: the name lookup takes the
    // registry mutex, which a full strategy search dwarfs.
    telemetry::MetricsRegistry::global()
        .counter("service.compiles." + request.strategy)
        .add();
    if (span.active())
        span.arg("cached", false);
    // Degraded outcomes are never cached: a later request with a
    // healthier budget must get the chance to do better.
    if (outcome->status == ResultStatus::Ok)
        store(key, *outcome);
    CompilationResult result = finishResult(request, *outcome);
    result.searchSeconds = search_seconds;
    return result;
}

void
CompilerService::recordStatus(ResultStatus status)
{
    {
        std::lock_guard lock(cacheMutex);
        switch (status) {
          case ResultStatus::Ok: ++serving.ok; break;
          case ResultStatus::DeadlineExceeded:
              ++serving.deadlineExceeded;
              break;
          case ResultStatus::Cancelled: ++serving.cancelled; break;
          case ResultStatus::Shed: ++serving.shed; break;
          case ResultStatus::Error: ++serving.errors; break;
        }
    }
    auto &metrics = ServiceMetrics::get();
    switch (status) {
      case ResultStatus::Ok: metrics.ok.add(); break;
      case ResultStatus::DeadlineExceeded:
          metrics.deadlineExceeded.add();
          break;
      case ResultStatus::Cancelled: metrics.cancelled.add(); break;
      case ResultStatus::Shed: metrics.shed.add(); break;
      case ResultStatus::Error: metrics.errors.add(); break;
    }
}

std::future<CompilationResult>
CompilerService::submit(CompilationRequest request)
{
    // Fail fast instead of burying the diagnostic in a future.
    rejectCallerErrors(request);
    {
        std::lock_guard lock(cacheMutex);
        ++serving.submitted;
    }

    auto &metrics = ServiceMetrics::get();
    const std::string strategy_name = request.strategy;
    const std::uint64_t submitted_ns = Timer::nowNs();
    std::packaged_task<CompilationResult()> task(
        [this, submitted_ns, request = std::move(request)] {
            auto &m = ServiceMetrics::get();
            m.queueDepth.add(-1);
            struct LatencyGuard
            {
                std::uint64_t submittedNs;
                telemetry::Histogram &latency;
                ~LatencyGuard()
                {
                    latency.record(
                        static_cast<double>(Timer::nowNs() -
                                            submittedNs) *
                        1e-9);
                }
            } guard{submitted_ns, m.latencySeconds};
            const double queue_wait =
                static_cast<double>(Timer::nowNs() -
                                    submitted_ns) *
                1e-9;
            // Failpoint: a worker dying on the request must
            // surface as an Error result through the future —
            // never a broken promise, never an abort.
            if (failpoint::fire("service.dispatch.fail")) {
                CompilationResult result;
                result.strategy = request.strategy;
                result.status = ResultStatus::Error;
                result.statusMessage =
                    "injected fault: service.dispatch.fail";
                recordStatus(ResultStatus::Error);
                return result;
            }
            return guardedCompile(request, queue_wait);
        });

    // Admission control: reject-newest once the queue is at depth.
    bool shed = false;
    std::future<CompilationResult> future;
    {
        std::lock_guard lock(queueMutex);
        require(!stopping,
                "CompilerService::submit after shutdown began");
        if (options.maxQueueDepth > 0 &&
            queue.size() >= options.maxQueueDepth) {
            shed = true;
        } else {
            future = task.get_future();
            queue.push_back(std::move(task));
        }
    }
    if (shed) {
        recordStatus(ResultStatus::Shed);
        CompilationResult result;
        result.strategy = strategy_name;
        result.status = ResultStatus::Shed;
        result.statusMessage =
            "submit queue full (depth " +
            std::to_string(options.maxQueueDepth) +
            "); request shed";
        std::promise<CompilationResult> ready;
        ready.set_value(std::move(result));
        return ready.get_future();
    }
    metrics.queueDepth.add(1);
    queueCv.notify_one();
    return future;
}

std::vector<CompilationResult>
CompilerService::compileBatch(
    std::vector<CompilationRequest> requests)
{
    std::vector<std::future<CompilationResult>> futures;
    futures.reserve(requests.size());
    for (auto &request : requests)
        futures.push_back(submit(std::move(request)));
    std::vector<CompilationResult> results;
    results.reserve(futures.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

void
CompilerService::workerLoop()
{
    // One task at a time per worker — never a whole batch. A batch
    // barrier would let one long-running SAT search hold back every
    // request submitted after it; pulling singly bounds the
    // head-of-line cost at (queue depth / workers), which is what
    // the daemon's pipelined out-of-order responses rely on.
    for (;;) {
        std::packaged_task<CompilationResult()> task;
        {
            std::unique_lock lock(queueMutex);
            queueCv.wait(lock, [this] {
                return stopping || !queue.empty();
            });
            if (queue.empty())
                return; // stopping, and fully drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        // packaged_task stores exceptions in its future, and with
        // guardedCompile it no longer stores even those: every
        // failure is an Error-status result.
        task();
    }
}

CacheStats
CompilerService::cacheStats() const
{
    std::lock_guard lock(cacheMutex);
    return stats;
}

ServiceStats
CompilerService::serviceStats() const
{
    std::lock_guard lock(cacheMutex);
    return serving;
}

std::string
CompilerService::cacheStatsJson() const
{
    const CacheStats snapshot = cacheStats();
    JsonWriter json;
    json.beginObject()
        .member("hits", snapshot.hits)
        .member("diskHits", snapshot.diskHits)
        .member("misses", snapshot.misses)
        .member("insertions", snapshot.insertions)
        .member("evictions", snapshot.evictions)
        .member("corrupted", snapshot.corrupted)
        .endObject();
    return json.take();
}

std::string
CompilerService::metricsJson()
{
    return telemetry::MetricsRegistry::global().metricsJson();
}

} // namespace fermihedral::api
