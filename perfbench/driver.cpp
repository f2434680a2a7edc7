/**
 * @file
 * The compiler benchmark's driver. One invocation runs one workload
 * and prints one JSON object (metrics, operation counts, correctness
 * failures) as its last stdout line; run.py builds this program,
 * adds the machine fingerprint and emits the final result.
 *
 * Flows (RATIONALE.md says why each exists):
 *   descent    api::Compiler::compile with `sat` and `sat-noalg`:
 *              a proof set that proves inside its budget and a tail
 *              set that stalls on an UNSAT step (Figs. 6/7, Table 4)
 *   noisy-sim  map+group -> compileTrotter -> routeCircuit on two
 *              topologies -> measureEnergy on a 4-thread pool, for
 *              3 Hamiltonians x 4 encodings (Figs. 8-10, Table 6)
 *   serve      fermihedrald driven closed-loop over one unix-socket
 *              connection: ~90% warm cache hits, ~10% unique cold
 *              keys that miss both cache tiers and write the store
 *
 * The workloads are `descent` and `noisy-sim`. Every run prints every
 * metric: the named workload gets the `--seconds` window, and the
 * other flows run fixed reference units, interleaved with it in
 * rounds. The traced run (--trace 1) instead reports the per-layer
 * metrics: it wraps each call into a layer in a bench-side span (one
 * request id per request), derives self times, and measures tracing
 * overhead by alternating untraced and traced reference units of the
 * workload on identical inputs.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/compiler.h"
#include "api/model_spec.h"
#include "api/serialize.h"
#include "api/service.h"
#include "circuit/pauli_compiler.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/annealing.h"
#include "core/descent_solver.h"
#include "core/encoding_model.h"
#include "encodings/encoding.h"
#include "hw/router.h"
#include "hw/topology.h"
#include "net/client.h"
#include "pauli/commuting_groups.h"
#include "sat/solver.h"
#include "sim/noise.h"

extern char **environ;

using namespace fermihedral;

namespace {

// ---------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The q-quantile as the sample at rank floor(q n) + 1, q in [0, 1]. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank = std::min(
        values.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(values.size())));
    std::nth_element(values.begin(), values.begin() + rank, values.end());
    return values[rank];
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / values.size();
}

/** SplitMix64 step: derives independent seeds from the run seed. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull ^
                      (b + 0x632be59bd9b4e019ull) * 0xbf58476d1ce4e5b9ull ^
                      (c + 0x1b873593ull) * 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------
// Result accumulation
// ---------------------------------------------------------------

struct Report
{
    std::mutex mutex;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        std::lock_guard<std::mutex> lock(mutex);
        metrics.push_back({name, {value, unit}});
    }

    void
    attempt()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++attempted;
    }

    /** Record a failed operation or check (counted in `failed`). */
    void
    fail(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    /** Record one checked condition. */
    void
    check(bool ok, const std::string &what)
    {
        attempt();
        if (!ok)
            fail(what);
    }
};

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Bench-side tracing: spans around calls into each layer
// ---------------------------------------------------------------

struct Span
{
    const char *layer;
    const char *name;
    std::uint64_t request;
    std::int64_t parent;
    double start;
    double end;
    std::size_t thread;
};

class Tracer
{
  public:
    bool enabled = false;

    std::int64_t
    open(const char *layer, const char *name, std::uint64_t request)
    {
        const std::int64_t parent = stack().empty() ? -1 : stack().back();
        std::lock_guard<std::mutex> lock(mutex);
        spans.push_back({layer, name, request, parent, now(), 0.0,
                         std::hash<std::thread::id>{}(
                             std::this_thread::get_id()) % 100000});
        const auto index = static_cast<std::int64_t>(spans.size() - 1);
        stack().push_back(index);
        return index;
    }

    void
    close(std::int64_t index)
    {
        const double end = now();
        stack().pop_back();
        std::lock_guard<std::mutex> lock(mutex);
        spans[static_cast<std::size_t>(index)].end = end;
    }

    /** Self time per layer: duration minus time covered by children. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> childTime(spans.size(), 0.0);
        for (const Span &span : spans)
            if (span.parent >= 0)
                childTime[static_cast<std::size_t>(span.parent)] +=
                    span.end - span.start;
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[spans[i].layer] +=
                spans[i].end - spans[i].start - childTime[i];
        return self;
    }

    std::size_t size() const { return spans.size(); }

    /** Write the spans as a Chrome trace-event document. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        const double origin = spans.empty() ? 0.0 : spans.front().start;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
                << "\",\"cat\":\"" << s.layer
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
                << ",\"ts\":" << (s.start - origin) * 1e6
                << ",\"dur\":" << (s.end - s.start) * 1e6
                << ",\"args\":{\"request\":" << s.request
                << ",\"span\":" << i << ",\"parent\":" << s.parent
                << "}}";
        }
        out << "\n]}\n";
    }

  private:
    static std::vector<std::int64_t> &
    stack()
    {
        thread_local std::vector<std::int64_t> open;
        return open;
    }

    std::mutex mutex;
    std::vector<Span> spans;
};

Tracer tracer;
std::atomic<std::uint64_t> nextRequestId{1};

/** RAII span; free when tracing is off. */
class Scope
{
  public:
    Scope(const char *layer, const char *name, std::uint64_t request)
    {
        if (tracer.enabled)
            index = tracer.open(layer, name, request);
    }
    ~Scope()
    {
        if (index >= 0)
            tracer.close(index);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    std::int64_t index = -1;
};

// ---------------------------------------------------------------
// The daemon under test
// ---------------------------------------------------------------

/** Closed-form strategies of the warm set and the cold keys. */
const std::vector<std::string> kClosedForm = {
    "jordan-wigner", "bravyi-kitaev", "parity", "ternary-tree"};

/** The serve warm key set, in the daemon's own --warm grammar. */
const char *kWarmSpec =
    "modes:2..8@jordan-wigner;modes:2..8@bravyi-kitaev;"
    "modes:2..8@parity;modes:2..8@ternary-tree;modes:2..4@sat;"
    "h2@sat;hubbard:2x2@sat";

/**
 * Warm-sweep SAT budgets (s). The N=4 proof's slowest step takes
 * ~0.1 s, so modes:2..4@sat still prove; h2 and hubbard:2x2 end at
 * their budget.
 */
constexpr double kWarmStep = 0.25;
constexpr double kWarmTotal = 1.0;

/**
 * noisy-sim's SAT encodings: budgets far from any step's duration,
 * so the encoding (and every routed count) is the same on each run.
 */
constexpr double kSimSatStep = 0.1;
constexpr double kSimSatTotal = 0.4;

class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dir)
        : directory(dir), socketPath(dir + "/d.sock")
    {
        std::filesystem::create_directories(dir);
        const std::string store = dir + "/store";
        const std::string log = dir + "/daemon.log";
        std::vector<std::string> args = {
            binary,
            "--unix", socketPath,
            "--store", store,
            "--store-shards", "16",
            "--threads", "2",
            "--warm", kWarmSpec,
            "--warm-step-timeout", std::to_string(kWarmStep),
            "--warm-total-timeout", std::to_string(kWarmTotal)};
        std::vector<char *> argv;
        for (auto &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid, binary.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw FatalError("cannot start " + binary);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect once the warm sweep is done and the loop serves. */
    net::EncodingClient
    connect(double timeout_seconds = 150.0) const
    {
        const double deadline = now() + timeout_seconds;
        while (true) {
            int status = 0;
            if (waitpid(pid, &status, WNOHANG) == pid)
                throw FatalError("daemon exited during start-up");
            if (now() > deadline)
                throw FatalError("daemon did not start in time");
            if (!std::filesystem::exists(socketPath)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                continue;
            }
            try {
                return net::EncodingClient::overUnix(socketPath);
            } catch (const FatalError &) {
                if (now() > deadline)
                    throw;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        }
    }

    void
    stop()
    {
        if (pid <= 0)
            return;
        kill(pid, SIGTERM);
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
        std::error_code ignored;
        std::filesystem::remove_all(directory, ignored);
    }

  private:
    std::string directory;
    std::string socketPath;
    pid_t pid = -1;
};

// ---------------------------------------------------------------
// Shared set-up: daemon + warm library, simulation cases, pools
// ---------------------------------------------------------------

struct SimCase
{
    std::string name;
    fermion::FermionHamiltonian hamiltonian;
    enc::FermionEncoding encoding;
    sim::StateVector initial;
};

struct Env
{
    std::unique_ptr<Daemon> daemon;
    std::vector<api::RequestSpec> warm;
    std::vector<SimCase> cases;
    hw::Topology grid;
    hw::Topology heavyHex;
    std::unique_ptr<ThreadPool> pool1;
    std::unique_ptr<ThreadPool> pool4;
};

const sim::NoiseModel kNoise = sim::NoiseModel::ionqAria1();
constexpr std::size_t kShotBatch = 4000;

api::RequestSpec
spec(const std::string &problem, const std::string &strategy,
     double step = 15.0, double total = 45.0)
{
    api::RequestSpec s;
    s.problem = problem;
    s.strategy = strategy;
    s.stepTimeoutSeconds = step;
    s.totalTimeoutSeconds = total;
    return s;
}

std::string
keyOf(const api::RequestSpec &s)
{
    return s.problem + "@" + s.strategy;
}

/** Independent re-check of one compile result against its request. */
void
checkResult(const api::CompilationRequest &request,
            const api::CompilationResult &result, const std::string &key,
            Report &report)
{
    report.check(result.status == api::ResultStatus::Ok,
                 key + ": status " +
                     api::resultStatusName(result.status));
    const auto validation = enc::validateEncoding(result.encoding);
    report.check(validation.valid() &&
                     result.encoding.modes == request.resolvedModes(),
                 key + ": invalid encoding " + validation.detail);
    const std::size_t recomputed =
        request.hamiltonian
            ? enc::hamiltonianPauliWeight(*request.hamiltonian,
                                          result.encoding)
            : result.encoding.totalWeight();
    report.check(recomputed == result.cost,
                 key + ": cost " + std::to_string(result.cost) +
                     " but encoding weighs " +
                     std::to_string(recomputed));
}

std::unique_ptr<Env>
setUp(const std::string &daemon_binary, const std::string &dir,
      Report &report)
{
    auto env = std::make_unique<Env>();
    env->warm = api::expandWarmSpec(kWarmSpec);
    // The daemon warms its library while the SAT encodings for
    // noisy-sim compile here; no search is timed in noisy-sim.
    env->daemon = std::make_unique<Daemon>(daemon_binary, dir);
    api::Compiler compiler;
    for (const std::string problem : {"h2", "hubbard1d:3", "hubbard:2x2"}) {
        for (const std::string strategy :
             {"jordan-wigner", "bravyi-kitaev", "ternary-tree", "sat"}) {
            const auto request = api::buildRequest(
                spec(problem, strategy, kSimSatStep, kSimSatTotal));
            const auto result = compiler.compile(request);
            checkResult(request, result, problem + "@" + strategy, report);
            // The trajectory cost does not depend on the amplitudes,
            // so every case starts from |0...0> instead of paying an
            // exact diagonalisation (0.5 s per 8-qubit case).
            env->cases.push_back(
                {problem + "/" + strategy, *request.hamiltonian,
                 result.encoding,
                 sim::StateVector(result.encoding.numQubits())});
        }
    }
    // The first compiles that run side by side in a fresh process
    // are several times slower than later ones; descent runs four.
    std::vector<std::thread> warmup;
    for (int t = 0; t < 4; ++t)
        warmup.emplace_back([] {
            api::Compiler().compile(
                api::buildRequest(spec("modes:4", "sat")));
        });
    for (auto &thread : warmup)
        thread.join();
    env->daemon->connect();
    env->grid = hw::Topology::parseSpec("grid:2x4");
    env->heavyHex = hw::Topology::parseSpec("heavy-hex:1");
    env->pool1 = std::make_unique<ThreadPool>(1);
    env->pool4 = std::make_unique<ThreadPool>(4);
    // The first measureEnergy after pool creation is slow.
    for (const SimCase &c : env->cases) {
        const auto qubit_h = enc::mapToQubits(c.hamiltonian, c.encoding);
        const auto circ = circuit::compileTrotter(qubit_h, 1.0);
        Rng rng(1);
        sim::measureEnergy(circ, c.initial, qubit_h, kNoise, 500, rng,
                           *env->pool4);
    }
    return env;
}

// ---------------------------------------------------------------
// descent: time to proved optimality
// ---------------------------------------------------------------

struct DescentJob
{
    api::RequestSpec spec;
    bool proofSet = false;
    /** Known optimum for proof-set total-weight instances (0 = n/a). */
    std::size_t knownOptimum = 0;
};

/** Proof-set budgets: several times SYK's ~2 s UNSAT step. */
constexpr double kProofStep = 10.0;
constexpr double kProofTotal = 40.0;
/** Tail budget: a fixed small step the tail UNSAT steps exceed. */
constexpr double kTailStep = 0.4;
constexpr double kTailTotal = 1.6;

std::vector<DescentJob>
proofPass(std::uint64_t seed, std::size_t pass)
{
    std::vector<DescentJob> jobs;
    const std::size_t optimum[] = {0, 0, 6, 11, 16};
    for (const std::string strategy : {"sat", "sat-noalg"}) {
        for (std::size_t n = 2; n <= 4; ++n)
            jobs.push_back({spec("modes:" + std::to_string(n), strategy,
                                 kProofStep, kProofTotal),
                            true, optimum[n]});
        const auto syk_seed = mix(seed, pass, 0x5c) % 1000000;
        jobs.push_back({spec("syk:3:" + std::to_string(syk_seed),
                             strategy, kProofStep, kProofTotal),
                        true, 0});
    }
    return jobs;
}

std::vector<DescentJob>
tailPass()
{
    std::vector<DescentJob> jobs;
    for (const auto &[problem, strategy] :
         std::vector<std::pair<std::string, std::string>>{
             {"modes:5", "sat"},
             {"modes:5", "sat-noalg"},
             {"modes:6", "sat-noalg"},
             {"h2", "sat"},
             {"hubbard1d:2", "sat"}})
        jobs.push_back(
            {spec(problem, strategy, kTailStep, kTailTotal), false, 0});
    return jobs;
}

struct DescentSample
{
    /** Instance type: the problem without its SYK seed, + strategy. */
    std::string type;
    bool proofSet;
    bool proved;
    double seconds;
    std::size_t cost;
    std::size_t baseline;
};

/** Everything a descent measurement accumulates across slices. */
struct DescentRun
{
    std::vector<DescentSample> samples;
    /** Cycles run so far: each pass draws fresh SYK couplings. */
    std::size_t cycles = 0;
};

/**
 * Run `cycles` whole cycles of (2 proof passes + 1 tail pass) on 4
 * worker threads, longest jobs first, or, when `cycles` is 0, whole
 * cycles until `seconds` elapse (at least one). Only whole cycles
 * count, so the instance mix is fixed.
 */
void
runDescent(std::uint64_t seed, double seconds, std::size_t cycles,
           DescentRun &run, Report &report)
{
    std::mutex mutex;
    const double start = now();
    for (std::size_t n = 0;; ++n) {
        if (cycles ? n >= cycles : (n > 0 && now() - start >= seconds))
            break;
        const std::size_t cycle = run.cycles++;
        std::vector<DescentJob> jobs = proofPass(seed, 2 * cycle);
        for (auto &job : proofPass(seed, 2 * cycle + 1))
            jobs.push_back(job);
        for (auto &job : tailPass())
            jobs.push_back(job);
        // SYK first, then the tail, then the small proofs.
        std::stable_sort(jobs.begin(), jobs.end(),
                         [](const DescentJob &a, const DescentJob &b) {
                             auto rank = [](const DescentJob &j) {
                                 return j.spec.problem.rfind("syk", 0) == 0
                                            ? 0
                                            : (j.proofSet ? 2 : 1);
                             };
                             return rank(a) < rank(b);
                         });
        std::vector<api::CompilationRequest> requests;
        for (const auto &job : jobs)
            requests.push_back(api::buildRequest(job.spec));
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            api::Compiler compiler;
            for (std::size_t i; (i = next++) < jobs.size();) {
                const std::uint64_t id = nextRequestId++;
                Scope root("bench", "descent.request", id);
                double t0 = 0.0, t1 = 0.0;
                api::CompilationResult result;
                {
                    Scope span("api", "api.compile", id);
                    t0 = now();
                    result = compiler.compile(requests[i]);
                    t1 = now();
                }
                const auto &job = jobs[i];
                const std::string key = keyOf(job.spec);
                checkResult(requests[i], result, key, report);
                if (job.knownOptimum && result.provedOptimal)
                    report.check(result.cost == job.knownOptimum,
                                 key + ": proved cost " +
                                     std::to_string(result.cost));
                std::lock_guard<std::mutex> lock(mutex);
                const auto colon = job.spec.problem.rfind(':');
                const std::string type =
                    (job.spec.problem.rfind("syk", 0) == 0
                         ? job.spec.problem.substr(0, colon)
                         : job.spec.problem) +
                    "@" + job.spec.strategy;
                run.samples.push_back(
                    {type, job.proofSet, result.provedOptimal,
                     result.provedOptimal ? t1 - t0 : kProofTotal,
                     result.cost, result.baselineCost});
            }
        };
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back(worker);
        for (auto &thread : threads)
            thread.join();
    }
}

void
reportDescent(const DescentRun &run, Report &report)
{
    const auto &samples = run.samples;
    std::vector<double> proof;
    std::map<std::string, std::vector<double>> byType;
    std::size_t proved = 0;
    double cost = 0.0, baseline = 0.0;
    for (const auto &s : samples) {
        if (s.proofSet) {
            proof.push_back(s.seconds);
            byType[s.type].push_back(s.seconds);
        }
        proved += s.proved;
        cost += static_cast<double>(s.cost);
        baseline += static_cast<double>(s.baseline);
    }
    // The pooled median falls in the gap between the N=3 and N=4
    // compiles, so any pooled estimate rests on one extreme sample;
    // the median instance's own median rests on all its samples.
    std::vector<double> typical;
    for (const auto &[type, seconds] : byType)
        typical.push_back(quantile(seconds, 0.5));
    report.metric("proof_s.p50", quantile(typical, 0.5), "s");
    report.metric("proof_s.p90", quantile(proof, 0.9), "s");
    report.metric("proved_frac",
                  static_cast<double>(proved) / samples.size(), "ratio");
    report.metric("weight_ratio", cost / baseline, "ratio");
}

// ---------------------------------------------------------------
// serve: closed-loop daemon traffic
// ---------------------------------------------------------------

struct ServeSample
{
    bool warm;
    double ms;
};

/** Everything a serve measurement accumulates across slices. */
struct ServeRun
{
    explicit ServeRun(std::uint64_t seed) : rng(mix(seed, 0x5e)) {}

    std::vector<ServeSample> samples;
    /** Completions per second in each full 0.25 s bin. */
    std::vector<double> binRates;
    /** Request order (warm/cold, warm key) and cold-key counter. */
    Rng rng;
    std::size_t cold = 0;
    /** First RESULT text seen per key (warm keys and every cold key). */
    std::map<std::string, std::pair<api::RequestSpec, std::string>> texts;
};

/**
 * The i-th unique cold key: two in three are SAT searches, so the
 * cold percentiles sit inside one population.
 */
api::RequestSpec
coldSpec(std::uint64_t seed, std::size_t i)
{
    const std::uint64_t k = (seed % 1000) * 1000000 + i;
    if (i % 3 != 2)
        return spec("syk:2:" + std::to_string(k), "sat", 2.0, 8.0);
    const std::size_t j = i / 3;
    return spec("syk:" + std::to_string(3 + j % 3) + ":" +
                    std::to_string(k),
                kClosedForm[j % kClosedForm.size()]);
}

/**
 * One closed-loop connection: each request goes out when the last
 * reply arrives, warm with probability 0.9 and cold otherwise, in a
 * seeded order. A second connection would wake the daemon's event
 * loop for the first one: with the 2 ms re-poll, round trips then
 * split between ~0.25 ms and ~2.2 ms modes whose shares shift from run
 * to run, so no percentile is steady. Sends `count` requests.
 */
void
runServe(Env &env, std::uint64_t seed, std::size_t count, ServeRun &run,
         Report &report)
{
    constexpr double kBin = 0.25;
    net::EncodingClient client = env.daemon->connect();
    std::vector<double> done;
    const double start = now();
    for (std::size_t i = 0; i < count; ++i) {
        const bool warm = run.rng.nextBelow(10) != 0;
        const api::RequestSpec s =
            warm ? env.warm[run.rng.nextBelow(env.warm.size())]
                 : coldSpec(seed, run.cold++);
        const std::uint64_t id = nextRequestId++;
        net::CompileReply reply;
        double t0 = 0.0, t1 = 0.0;
        {
            Scope root("bench", "serve.request", id);
            Scope span("net", "net.compile", id);
            t0 = now();
            reply = client.compile(id, s);
            t1 = now();
        }
        run.samples.push_back({warm, (t1 - t0) * 1e3});
        done.push_back(t1);
        report.attempt();
        const std::string key = keyOf(s);
        if (reply.status != api::ResultStatus::Ok) {
            report.fail(key + ": daemon status " +
                        api::resultStatusName(reply.status));
            continue;
        }
        const auto [it, inserted] =
            run.texts.try_emplace(key, s, reply.resultText);
        if (!inserted && it->second.second != reply.resultText)
            report.fail(key + ": warm RESULT changed between hits");
    }
    // Throughput per full bin; the median over bins resists the
    // machine's short stalls better than one overall ratio.
    const auto bins = static_cast<std::size_t>((now() - start) / kBin);
    std::vector<double> counts(bins, 0.0);
    for (const double t : done) {
        const auto bin = static_cast<std::size_t>((t - start) / kBin);
        if (bin < bins)
            counts[bin] += 1.0;
    }
    for (const double c : counts)
        run.binRates.push_back(c / kBin);
}

/**
 * Re-check every distinct RESULT: parse, validate, recompute the
 * cost, and compare deterministic ones (closed-form or proved) to an
 * in-process compile byte for byte.
 */
void
verifyServe(const ServeRun &run, Report &report)
{
    api::Compiler compiler;
    std::size_t cold_seen = 0;
    for (const auto &[key, entry] : run.texts) {
        const auto &[s, text] = entry;
        const auto parsed = api::tryParseResult(text);
        report.check(parsed.has_value(), key + ": unparsable RESULT");
        if (!parsed)
            continue;
        const auto request = api::buildRequest(s);
        checkResult(request, *parsed, key, report);
        const bool closed_form =
            std::find(kClosedForm.begin(), kClosedForm.end(),
                      s.strategy) != kClosedForm.end();
        const bool cold = s.problem.rfind("syk", 0) == 0;
        if (!(closed_form || parsed->provedOptimal))
            continue;
        if (cold && cold_seen++ % 8 != 0)
            continue;
        report.check(api::serializeResult(compiler.compile(request)) ==
                         text,
                     key + ": daemon RESULT differs from in-process");
    }
}

void
reportServe(const ServeRun &run, Report &report)
{
    std::vector<double> warm, cold;
    for (const auto &s : run.samples)
        (s.warm ? warm : cold).push_back(s.ms);
    report.metric("warm_ms.p50", quantile(warm, 0.5), "ms");
    // No tail percentiles: the 2 ms re-poll quantisation and the
    // machine's scheduling noise move every percentile above the
    // median by more than 20% from run to run (see RATIONALE.md).
    report.metric("cold_ms.p50", quantile(cold, 0.5), "ms");
    report.metric("throughput_rps", quantile(run.binRates, 0.5), "req/s");
}

// ---------------------------------------------------------------
// noisy-sim: encoding -> energy estimate
// ---------------------------------------------------------------

/** Everything a noisy-sim measurement accumulates across slices. */
struct SimRun
{
    std::size_t cycles = 0;
    /** Pipeline wall times, one list per case. */
    std::map<std::size_t, std::vector<double>> pipelineSeconds;
    double shots = 0.0;
    double shotSeconds = 0.0;
    /** Routed totals of one cycle (every cycle must repeat them). */
    std::size_t routed2q = 0;
    std::size_t routedDepth = 0;
    // Per-layer sums (first cycle).
    std::vector<double> trotterUs, routeUs, groupUs;
    std::size_t cnots = 0, swaps = 0, groups = 0;
};

std::size_t
countCnots(const circuit::Circuit &c)
{
    return static_cast<std::size_t>(std::count_if(
        c.gates().begin(), c.gates().end(), [](const circuit::Gate &g) {
            return g.kind == circuit::GateKind::Cnot;
        }));
}

/**
 * Run `cycles` passes over every case or, when `cycles` is 0, whole
 * passes until `seconds` elapse (at least one).
 */
void
runSim(Env &env, std::uint64_t seed, double seconds, std::size_t cycles,
       SimRun &out, Report &report)
{
    const double start = now();
    for (std::size_t n = 0;; ++n) {
        if (cycles ? n >= cycles : (n > 0 && now() - start >= seconds))
            break;
        const std::size_t cycle = out.cycles++;
        std::size_t cycle2q = 0, cycleDepth = 0;
        for (std::size_t i = 0; i < env.cases.size(); ++i) {
            const SimCase &c = env.cases[i];
            const std::uint64_t id = nextRequestId++;
            Scope root("bench", "sim.request", id);
            const double t0 = now();
            pauli::PauliSum qubit_h;
            std::vector<pauli::CommutingGroup> groups;
            double tg0 = 0, tg1 = 0, tc0 = 0, tc1 = 0, tr0 = 0, tr1 = 0;
            {
                Scope span("encodings", "enc.mapToQubits", id);
                qubit_h = enc::mapToQubits(c.hamiltonian, c.encoding);
            }
            {
                Scope span("pauli", "pauli.group", id);
                tg0 = now();
                groups = pauli::groupQubitWiseCommuting(qubit_h);
                tg1 = now();
            }
            circuit::Circuit circ;
            {
                Scope span("circuit", "circuit.compileTrotter", id);
                tc0 = now();
                circ = circuit::compileTrotter(qubit_h, 1.0);
                tc1 = now();
            }
            hw::RoutedCircuit onGrid, onHex;
            double tr2 = 0, tr3 = 0;
            {
                Scope span("hw", "hw.route.grid", id);
                tr0 = now();
                onGrid = hw::routeCircuit(circ, env.grid);
                tr1 = now();
            }
            {
                Scope span("hw", "hw.route.heavy-hex", id);
                tr2 = now();
                onHex = hw::routeCircuit(circ, env.heavyHex);
                tr3 = now();
            }
            Rng rng(mix(seed, cycle, i));
            sim::EnergyStatistics stats;
            {
                Scope span("sim", "sim.measureEnergy", id);
                stats = sim::measureEnergy(circ, c.initial, qubit_h,
                                           kNoise, kShotBatch, rng,
                                           *env.pool4);
            }
            out.pipelineSeconds[i].push_back(now() - t0);
            out.shots += static_cast<double>(stats.shots);
            out.shotSeconds += stats.elapsedSeconds;
            report.attempt();

            // Checks against independent counts.
            const std::size_t cnots = countCnots(circ);
            for (const auto *routed : {&onGrid, &onHex}) {
                report.check(routed->stats.twoQubitGates ==
                                     cnots + 3 * routed->stats.swaps &&
                                 countCnots(routed->physical) ==
                                     routed->stats.twoQubitGates,
                             c.name + ": routed 2q count");
                cycle2q += routed->stats.twoQubitGates;
                cycleDepth += routed->stats.depth;
            }
            std::size_t grouped = 0, terms = 0;
            for (const auto &g : groups)
                grouped += g.termIndices.size();
            for (const auto &term : qubit_h.terms())
                terms += !term.string.isIdentity();
            report.check(grouped == terms,
                         c.name + ": groups do not cover the terms");
            report.check(stats.shots == kShotBatch &&
                             std::isfinite(stats.mean),
                         c.name + ": energy estimate");
            if (cycle == 0) {
                out.groupUs.push_back((tg1 - tg0) * 1e6);
                out.trotterUs.push_back((tc1 - tc0) * 1e6);
                out.routeUs.push_back((tr1 - tr0) * 1e6);
                out.routeUs.push_back((tr3 - tr2) * 1e6);
                out.cnots += cnots;
                out.swaps += onGrid.stats.swaps + onHex.stats.swaps;
                out.groups += groups.size();
            }
        }
        if (cycle == 0) {
            out.routed2q = cycle2q;
            out.routedDepth = cycleDepth;
        } else {
            report.check(cycle2q == out.routed2q &&
                             cycleDepth == out.routedDepth,
                         "routing changed between cycles");
        }
    }
}

/** measureEnergy means must not depend on the thread count. */
void
verifyThreadIndependence(Env &env, std::uint64_t seed, Report &report)
{
    for (std::size_t i = 0; i < env.cases.size(); ++i) {
        const SimCase &c = env.cases[i];
        const auto qubit_h = enc::mapToQubits(c.hamiltonian, c.encoding);
        const auto circ = circuit::compileTrotter(qubit_h, 1.0);
        Rng a(mix(seed, i, 0x71)), b(mix(seed, i, 0x71));
        const auto one = sim::measureEnergy(circ, c.initial, qubit_h,
                                            kNoise, 400, a, *env.pool1);
        const auto four = sim::measureEnergy(circ, c.initial, qubit_h,
                                             kNoise, 400, b, *env.pool4);
        report.check(one.mean == four.mean,
                     c.name + ": energy differs between 1 and 4 threads");
    }
}

void
reportSim(const SimRun &out, Report &report)
{
    report.metric("shots_per_s", out.shots / out.shotSeconds, "shots/s");
    std::vector<double> typical;
    // As for proof_s.p50: the pooled median falls between cases of
    // different sizes, so take the median case's own median.
    for (const auto &[c, seconds] : out.pipelineSeconds)
        typical.push_back(quantile(seconds, 0.5));
    report.metric("pipeline_s.p50", quantile(typical, 0.5), "s");
    report.metric("routed_2q", static_cast<double>(out.routed2q),
                  "count");
    report.metric("routed_depth", static_cast<double>(out.routedDepth),
                  "count");
}

// ---------------------------------------------------------------
// Per-layer measurements (traced run)
// ---------------------------------------------------------------

/** What the traced run reads from DescentResult and its progress. */
struct CoreTally
{
    sat::SolverStats stats;
    double solveSeconds = 0.0;
    double simplifySeconds = 0.0;
    double constructSeconds = 0.0;
    double annealSeconds = 0.0;
    std::map<sat::SolveStatus, std::vector<double>> steps;
    std::uint64_t proofConflicts = 0;
};

/**
 * One descent job through core directly, because api does not expose
 * DescentResult. This must mirror SatStrategy::search and
 * descentOptions in src/api/strategy_registry.cpp: the same descent
 * options, and for Hamiltonians an independent solve at half the step
 * and total budgets -> annealing -> a seeded dependent solve given
 * whatever of the total budget remains.
 */
void
runCoreJob(const DescentJob &job, CoreTally &tally)
{
    const auto request = api::buildRequest(job.spec);
    const std::uint64_t id = nextRequestId++;
    Scope root("bench", "core.request", id);
    core::DescentOptions options;
    options.algebraicIndependence =
        job.spec.strategy == "sat" && request.algebraicIndependence;
    options.vacuumPreservation = request.vacuumPreservation;
    options.stepTimeoutSeconds = request.stepTimeoutSeconds;
    options.totalTimeoutSeconds = request.totalTimeoutSeconds;
    options.threads = request.threads;
    options.portfolioInstances = request.portfolioInstances;
    options.deterministic = request.deterministic;
    options.preprocess = request.preprocess;
    options.carryLearnts = request.carryLearnts;
    options.inprocess = request.inprocess;
    double last = 0.0;
    options.progress = [&](const core::DescentProgress &p) {
        tally.steps[p.status].push_back(p.elapsedSeconds - last);
        last = p.elapsedSeconds;
    };
    auto absorb = [&](const core::DescentResult &r) {
        tally.stats += r.satStats.aggregate;
        tally.solveSeconds += r.solveSeconds;
        tally.constructSeconds += r.constructSeconds;
        tally.simplifySeconds += r.satStats.simplifier.seconds;
        if (job.proofSet)
            tally.proofConflicts += r.satStats.aggregate.conflicts;
    };
    if (!request.hamiltonian) {
        Scope span("core", "core.descent", id);
        last = 0.0;
        absorb(core::DescentSolver(request.resolvedModes(), options)
                   .solve());
        return;
    }
    const auto &h = *request.hamiltonian;
    const double start = now();
    auto indep_options = options;
    indep_options.stepTimeoutSeconds /= 2.0;
    indep_options.totalTimeoutSeconds /= 2.0;
    core::DescentResult indep;
    {
        Scope span("core", "core.descent", id);
        last = 0.0;
        indep = core::DescentSolver(h.modes(), indep_options).solve();
    }
    absorb(indep);
    core::AnnealingResult annealed;
    {
        Scope span("core", "core.annealPairing", id);
        const double t0 = now();
        annealed = core::annealPairing(indep.encoding, h);
        tally.annealSeconds += now() - t0;
    }
    options.totalTimeoutSeconds =
        std::max(request.totalTimeoutSeconds - (now() - start), 0.0);
    options.seedEncoding = annealed.encoding;
    Scope span("core", "core.descent", id);
    last = 0.0;
    absorb(core::DescentSolver(h, options).solve());
}

void
layerSat(std::uint64_t seed, Report &report)
{
    CoreTally tally;
    for (const auto &job : proofPass(seed, 0))
        runCoreJob(job, tally);
    for (const auto &job : tailPass())
        runCoreJob(job, tally);
    report.metric("sat.conflicts_per_s",
                  tally.stats.conflicts / tally.solveSeconds, "1/s");
    report.metric("sat.props_per_s",
                  tally.stats.propagations / tally.solveSeconds, "1/s");
    report.metric("sat.simplify_s", tally.simplifySeconds, "s");
    report.metric("sat.conflicts",
                  static_cast<double>(tally.proofConflicts), "count");
    report.metric("sat.inprocessings",
                  static_cast<double>(tally.stats.inprocessings), "count");
    report.metric("core.construct_s", tally.constructSeconds, "s");
    const std::pair<const char *, sat::SolveStatus> verdicts[] = {
        {"core.step_s.sat", sat::SolveStatus::Sat},
        {"core.step_s.unsat", sat::SolveStatus::Unsat},
        {"core.step_s.unknown", sat::SolveStatus::Unknown}};
    std::size_t steps = 0;
    for (const auto &[name, status] : verdicts) {
        report.metric(name, mean(tally.steps[status]), "s");
        steps += tally.steps[status].size();
    }
    report.metric("core.steps", static_cast<double>(steps), "count");
    report.metric("core.anneal_s", tally.annealSeconds, "s");

    // Fixed CNFs: the N=4 model refuted at cost <= 15, and the N=5
    // model at cost <= 21 under a fixed conflict budget.
    std::vector<double> unsat;
    for (int rep = 0; rep < 3; ++rep) {
        sat::Solver solver;
        core::EncodingModelOptions mo;
        mo.modes = 4;
        mo.costCap = 21;
        core::EncodingModel model(solver, mo);
        const sat::Lit bound = model.costAtMostAssumption(15);
        const std::uint64_t id = nextRequestId++;
        Scope span("sat", "sat.solve.fixed-unsat", id);
        const double t0 = now();
        const auto status = solver.solve(std::span<const sat::Lit>(&bound, 1));
        unsat.push_back(now() - t0);
        report.check(status == sat::SolveStatus::Unsat,
                     "fixed N=4 CNF at cost <= 15 is not UNSAT");
    }
    report.metric("sat.fixed.unsat_s", quantile(unsat, 0.5), "s");
    {
        sat::Solver solver;
        core::EncodingModelOptions mo;
        mo.modes = 5;
        mo.costCap = 25;
        core::EncodingModel model(solver, mo);
        const sat::Lit bound = model.costAtMostAssumption(21);
        sat::Budget budget;
        budget.maxConflicts = 30000;
        const std::uint64_t id = nextRequestId++;
        Scope span("sat", "sat.solve.fixed-conflicts", id);
        const double t0 = now();
        solver.solve(std::span<const sat::Lit>(&bound, 1), budget);
        const double dt = now() - t0;
        report.metric("sat.fixed.conflicts_per_s",
                      solver.stats().conflicts / dt, "1/s");
    }
}

void
layerApi(Env &env, std::uint64_t seed, Report &report)
{
    api::ServiceOptions options;
    options.threads = 2;
    api::CompilerService service(options);
    std::vector<api::CompilationRequest> warm;
    for (const auto &s : env.warm) {
        auto request = api::buildRequest(
            spec(s.problem, s.strategy, kWarmStep, kWarmTotal));
        service.compile(request);
        warm.push_back(std::move(request));
    }
    const auto before = service.cacheStats();
    Rng rng(mix(seed, 0xa1));
    std::vector<double> us, serializeUs;
    std::vector<api::CompilationResult> results;
    for (int i = 0; i < 2000; ++i) {
        const auto &request = warm[rng.nextBelow(warm.size())];
        const std::uint64_t id = nextRequestId++;
        Scope span("api", "api.service.compile", id);
        const double t0 = now();
        auto result = service.compile(request);
        us.push_back((now() - t0) * 1e6);
        if (i < 200)
            results.push_back(std::move(result));
    }
    const auto after = service.cacheStats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses =
        static_cast<double>(after.misses - before.misses);
    report.metric("api.warm_us.p50", quantile(us, 0.5), "us");
    report.metric("api.warm_us.p99", quantile(us, 0.99), "us");
    report.metric("api.cache_hit_frac", hits / (hits + misses), "ratio");
    for (int rep = 0; rep < 10; ++rep)
        for (const auto &result : results) {
            const std::uint64_t id = nextRequestId++;
            Scope span("api", "api.serialize", id);
            const double t0 = now();
            const auto parsed =
                api::tryParseResult(api::serializeResult(result));
            serializeUs.push_back((now() - t0) * 1e6);
            if (rep == 0)
                report.check(parsed.has_value(),
                             "serialized result does not parse");
        }
    report.metric("api.serialize_us", mean(serializeUs), "us");
    std::vector<double> cold;
    for (std::size_t i = 0; i < 60; ++i) {
        const auto request = api::buildRequest(coldSpec(seed + 500, i));
        const std::uint64_t id = nextRequestId++;
        Scope span("api", "api.service.compile.cold", id);
        const double t0 = now();
        service.compile(request);
        cold.push_back((now() - t0) * 1e3);
    }
    report.metric("api.cold_ms.p50", quantile(cold, 0.5), "ms");
}

void
layerNet(Env &env, std::uint64_t seed, double api_warm_us, Report &report)
{
    net::EncodingClient client = env.daemon->connect();
    std::vector<double> ping;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t id = nextRequestId++;
        Scope span("net", "net.ping", id);
        const double t0 = now();
        client.sendPing(id, "perfbench");
        const auto frame = client.readMessage();
        ping.push_back((now() - t0) * 1e6);
        if (i == 0)
            report.check(frame && frame->type == net::MessageType::Pong,
                         "PING not answered by PONG");
    }
    report.metric("net.ping_us.p50", quantile(ping, 0.5), "us");
    report.metric("net.ping_us.p99", quantile(ping, 0.99), "us");

    Rng rng(mix(seed, 0xb2));
    std::vector<double> warm;
    for (int i = 0; i < 500; ++i) {
        const auto &s = env.warm[rng.nextBelow(env.warm.size())];
        const std::uint64_t id = nextRequestId++;
        Scope span("net", "net.compile", id);
        const double t0 = now();
        client.compile(id, s);
        warm.push_back((now() - t0) * 1e6);
    }
    report.metric("net.overhead_us.p50", quantile(warm, 0.5) - api_warm_us,
                  "us");

    // A window of 32 in flight stays under the daemon's admission
    // limit (64 queued requests), so nothing is shed.
    const std::size_t count = 4000, window = 32;
    const std::uint64_t id = nextRequestId++;
    Scope span("net", "net.pipelined", id);
    const double t0 = now();
    std::size_t sent = 0, ok = 0;
    for (; sent < window; ++sent)
        client.sendCompile(id * 10000 + sent,
                           env.warm[rng.nextBelow(env.warm.size())]);
    for (std::size_t i = 0; i < count; ++i) {
        const auto frame = client.readMessage();
        ok += frame && net::EncodingClient::decodeReply(*frame).status ==
                           api::ResultStatus::Ok;
        if (sent < count)
            client.sendCompile(id * 10000 + sent++,
                               env.warm[rng.nextBelow(env.warm.size())]);
    }
    report.metric("net.pipelined_rps", count / (now() - t0), "req/s");
    report.check(ok == count, "pipelined warm requests failed");
}

void
layerSim(Env &env, std::uint64_t seed, Report &report)
{
    const SimCase &c = env.cases.back(); // hubbard:2x2 / sat, 8 qubits
    const auto qubit_h = enc::mapToQubits(c.hamiltonian, c.encoding);
    const auto circ = circuit::compileTrotter(qubit_h, 1.0);
    ThreadPool pool2(2);
    const std::pair<const char *, ThreadPool *> pools[] = {
        {"sim.shots_per_s.t1", env.pool1.get()},
        {"sim.shots_per_s.t2", &pool2},
        {"sim.shots_per_s.t4", env.pool4.get()}};
    for (const auto &[name, pool] : pools) {
        Rng warmup(1);
        sim::measureEnergy(circ, c.initial, qubit_h, kNoise, 500, warmup,
                           *pool);
        std::vector<double> rates;
        for (int rep = 0; rep < 3; ++rep) {
            Rng rng(mix(seed, rep, 0xc3));
            const std::uint64_t id = nextRequestId++;
            Scope span("sim", "sim.measureEnergy", id);
            const auto stats = sim::measureEnergy(
                circ, c.initial, qubit_h, kNoise, kShotBatch, rng, *pool);
            rates.push_back(stats.shots / stats.elapsedSeconds);
        }
        report.metric(name, quantile(rates, 0.5), "shots/s");
    }
    sim::StateVector out = c.initial;
    Rng rng(mix(seed, 0xd4));
    const std::uint64_t id = nextRequestId++;
    Scope span("sim", "sim.runNoisyTrajectory", id);
    const int trajectories = 2000;
    const double t0 = now();
    for (int i = 0; i < trajectories; ++i)
        sim::runNoisyTrajectoryInto(circ, c.initial, kNoise, rng, out);
    report.metric("sim.trajectory_us", (now() - t0) * 1e6 / trajectories,
                  "us");
}

// ---------------------------------------------------------------
// Driver
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;
    std::string workDir;
    std::string traceFile;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--daemon")
            args.daemon = value;
        else if (flag == "--work-dir")
            args.workDir = value;
        else if (flag == "--trace-file")
            args.traceFile = value;
        else
            throw FatalError("unknown flag " + flag);
    }
    if (args.workload != "descent" && args.workload != "noisy-sim")
        throw FatalError("unknown workload '" + args.workload + "'");
    if (args.daemon.empty() || args.workDir.empty())
        throw FatalError("--daemon and --work-dir are required");
    return args;
}

double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;
}

/** Log a section's wall time to stderr (progress, not a metric). */
class Section
{
  public:
    explicit Section(const char *name) : name(name), start(now()) {}
    ~Section()
    {
        std::fprintf(stderr, "[perfbench] %-10s %7.2f s\n", name,
                     now() - start);
    }
    Section(const Section &) = delete;
    Section &operator=(const Section &) = delete;

  private:
    const char *name;
    double start;
};

/** Set up three times; keep the last environment, report the median. */
std::unique_ptr<Env>
setUpMedian(const Args &args, Report &report, double &setup_seconds)
{
    std::vector<double> times;
    std::unique_ptr<Env> env;
    for (int rep = 0; rep < 3; ++rep) {
        env.reset();
        Section section("setup");
        const double t0 = now();
        env = setUp(args.daemon,
                    args.workDir + "/setup" + std::to_string(rep), report);
        times.push_back(now() - t0);
    }
    setup_seconds = quantile(times, 0.5);
    return env;
}

/**
 * The named workload owns the `--seconds` window; each other flow runs
 * a fixed reference unit per round. The run is cut into rounds that
 * interleave the window's slices with the reference units, so every
 * metric's samples span the whole run and average over the same slow
 * drift of the machine's speed. Serve is never the named workload:
 * its latencies are quantised by the daemon's 2 ms re-poll and hold
 * steady on its reference unit alone.
 */
constexpr int kRounds = 2;
constexpr std::size_t kDescentUnitCycles = 2;
constexpr std::size_t kSimUnitCycles = 6;
constexpr std::size_t kServeUnitRequests = 1000;

struct Runs
{
    explicit Runs(std::uint64_t seed) : serve(seed) {}
    DescentRun descent;
    ServeRun serve;
    SimRun sim;
};

/**
 * Keep 4 threads busy for a second, untimed. After the mostly idle
 * serve flow the machine needs about that long to return to full
 * speed (measureEnergy ran ~45% slower in its first 2 s after idle).
 */
void
spinUp(Env &env)
{
    const SimCase &c = env.cases.back();
    const auto qubit_h = enc::mapToQubits(c.hamiltonian, c.encoding);
    const auto circ = circuit::compileTrotter(qubit_h, 1.0);
    Rng rng(1);
    for (const double start = now(); now() - start < 1.0;)
        sim::measureEnergy(circ, c.initial, qubit_h, kNoise, 2000, rng,
                           *env.pool4);
}

/**
 * One round: a window slice of `workload` and reference units of the
 * other flows. Serve goes last, so the compute-bound flows never start
 * straight after it; later rounds spin the machine up first.
 */
void
runRound(const Args &args, Env &env, const std::string &workload,
         double slice, bool first, Runs &runs, Report &report)
{
    if (!first)
        spinUp(env);
    {
        Section section("descent");
        runDescent(args.seed, slice,
                   workload == "descent" ? 0 : kDescentUnitCycles,
                   runs.descent, report);
    }
    {
        Section section("noisy-sim");
        runSim(env, args.seed, slice,
               workload == "noisy-sim" ? 0 : kSimUnitCycles, runs.sim,
               report);
    }
    Section section("serve");
    runServe(env, args.seed, kServeUnitRequests, runs.serve, report);
}

void
runUntraced(const Args &args, Env &env, Report &report)
{
    Runs runs(args.seed);
    for (int round = 0; round < kRounds; ++round)
        runRound(args, env, args.workload, args.seconds / kRounds,
                 round == 0, runs, report);
    reportDescent(runs.descent, report);
    reportServe(runs.serve, report);
    reportSim(runs.sim, report);
    Section section("checks");
    verifyServe(runs.serve, report);
    verifyThreadIndependence(env, args.seed, report);
    report.metric("peak_rss_mb", selfPeakRssMb(), "MB");
}

/**
 * One small unit of the named workload on fresh state, so every unit
 * does the same work: descent compiles the same SYK couplings and
 * noisy-sim draws the same shots. Returns the unit's wall time.
 */
double
referenceUnit(const Args &args, Env &env, Report &report)
{
    Runs runs(args.seed);
    const double t0 = now();
    if (args.workload == "descent")
        runDescent(args.seed, 0.0, 1, runs.descent, report);
    else
        runSim(env, args.seed, 0.0, 2, runs.sim, report);
    return now() - t0;
}

/** Untraced/traced reference-unit pairs behind trace.overhead_pct. */
constexpr std::size_t kOverheadPairs = 3;

void
runTraced(const Args &args, Env &env, Report &report)
{
    // Alternate untraced and traced units, so both see the same drift
    // of the machine's speed, and compare their medians.
    std::vector<double> untraced, traced;
    for (std::size_t i = 0; i < kOverheadPairs; ++i) {
        tracer.enabled = false;
        untraced.push_back(referenceUnit(args, env, report));
        tracer.enabled = true;
        traced.push_back(referenceUnit(args, env, report));
    }
    const double base = quantile(untraced, 0.5);
    report.metric("trace.overhead_pct",
                  100.0 * (quantile(traced, 0.5) - base) / base, "%");

    layerSat(args.seed, report);
    layerApi(env, args.seed, report);
    double api_warm_us = 0.0;
    for (const auto &[name, value] : report.metrics)
        if (name == "api.warm_us.p50")
            api_warm_us = value.first;
    layerNet(env, args.seed, api_warm_us, report);
    layerSim(env, args.seed, report);
    SimRun simOut;
    runSim(env, args.seed, 0.0, 1, simOut, report);
    report.metric("circuit.trotter_us", mean(simOut.trotterUs), "us");
    report.metric("circuit.cnots", static_cast<double>(simOut.cnots),
                  "count");
    report.metric("hw.route_us", mean(simOut.routeUs), "us");
    report.metric("hw.swaps", static_cast<double>(simOut.swaps), "count");
    report.metric("pauli.group_us", mean(simOut.groupUs), "us");
    report.metric("pauli.groups", static_cast<double>(simOut.groups),
                  "count");
    tracer.enabled = false;

    const auto self = tracer.selfSeconds();
    for (const char *layer : {"bench", "api", "core", "sat", "net",
                              "encodings", "pauli", "circuit", "hw",
                              "sim"}) {
        const auto it = self.find(layer);
        report.metric(std::string("self_s.") + layer,
                      it == self.end() ? 0.0 : it->second, "s");
    }
    if (!args.traceFile.empty())
        tracer.write(args.traceFile);
}

void
printReport(const Report &report)
{
    std::ostringstream out;
    out.precision(10);
    out << "{\"attempted\":" << report.attempted
        << ",\"failed\":" << report.failed << ",\"failures\":[";
    for (std::size_t i = 0; i < report.failures.size(); ++i)
        out << (i ? "," : "") << "\"" << jsonEscape(report.failures[i])
            << "\"";
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &[name, value] = report.metrics[i];
        out << (i ? "," : "") << "\"" << name << "\":{\"value\":";
        if (std::isfinite(value.first))
            out << value.first;
        else
            out << "null";
        out << ",\"unit\":\"" << value.second << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Report report;
        double setup_seconds = 0.0;
        auto env = setUpMedian(args, report, setup_seconds);
        if (args.trace)
            runTraced(args, *env, report);
        else
            runUntraced(args, *env, report);
        if (!args.trace)
            report.metric("setup_s", setup_seconds, "s");
        env.reset();
        printReport(report);
        return report.failed == 0 ? 0 : 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
        return 2;
    }
}
