/**
 * @file
 * EncodingServer: the daemon core binding the net/ layer to the
 * CompilerService. One poll(2) loop (net/event_loop.h) owns every
 * listener and connection fd; per-connection protocol state lives
 * in net/connection.h Connection objects; compilations run on the
 * service's own pool and their futures are reaped by the loop, so
 * all connection state is touched from exactly one thread — no
 * per-connection locks.
 *
 * Completion model: COMPILE frames become CompilerService::submit()
 * futures. While any are pending the loop polls with a short
 * timeout (~2 ms) and checks each future with wait_for(0); the
 * bounded extra latency this adds sits outside the service's own
 * submit-to-complete histogram, so service.latency_seconds stays
 * honest. CANCEL frames flip the stored CancellationToken of the
 * (connection, id) pair; the search observes it at its next budget
 * poll and the RESULT frame carries the typed degraded status.
 *
 * Key invariants:
 *  - All Connection/ConnState mutation happens on the run() thread.
 *    stop() is the only cross-thread entry point (atomic flag +
 *    EventLoop::wake(), both async-signal-safe), so it may be
 *    called from signal handlers.
 *  - A connection that dies with requests in flight cancels their
 *    tokens; their futures still complete (the service never
 *    abandons work) and the results are dropped on reap.
 *  - Responses go out in completion order, keyed by request id —
 *    the server never reorders or delays a completed result to
 *    restore submission order.
 *  - warm() runs strictly before serving: the store is populated
 *    through the same CompilerService (same canonical keys, same
 *    CRC'd entry format), so warmed entries are
 *    indistinguishable from ones cached by live traffic.
 */

#ifndef FERMIHEDRAL_NET_SERVER_H
#define FERMIHEDRAL_NET_SERVER_H

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/model_spec.h"
#include "api/service.h"
#include "net/connection.h"
#include "net/event_loop.h"

namespace fermihedral::net {

/** Configuration of an EncodingServer. */
struct ServerOptions
{
    /** TCP listener address (empty disables TCP). Numeric IPv4. */
    std::string tcpHost;

    /** TCP port (0 = ephemeral; see boundTcpPort()). */
    std::uint16_t tcpPort = 0;

    /** Unix-domain socket path (empty disables the listener). */
    std::string unixPath;

    /** File mode applied to the unix socket (default 0600). */
    unsigned unixMode = 0600;

    /** The wrapped CompilerService's configuration. */
    api::ServiceOptions service;
};

/** What warm() did (logged and reported by fermihedrald). */
struct WarmReport
{
    /** Specs compiled (cache hits included). */
    std::size_t requests = 0;
    /** Requests that ended ResultStatus::Ok. */
    std::size_t ok = 0;
    /** Requests answered from the cache (no search). */
    std::size_t fromCache = 0;
    /** Wall-clock seconds for the whole sweep. */
    double seconds = 0.0;
};

/** The daemon core (see file docs). */
class EncodingServer
{
  public:
    explicit EncodingServer(const ServerOptions &options);
    ~EncodingServer();

    EncodingServer(const EncodingServer &) = delete;
    EncodingServer &operator=(const EncodingServer &) = delete;

    /**
     * Precompile every spec through the service (and thus into the
     * store) before serving. Non-Ok outcomes are warned about and
     * counted, not fatal — a warm spec that times out still leaves
     * the daemon servable.
     */
    WarmReport warm(const std::vector<api::RequestSpec> &specs);

    /** Serve until stop(). Runs the loop on the calling thread. */
    void run();

    /** Request shutdown; safe from any thread or signal handler. */
    void stop();

    /** Actual TCP port (after an ephemeral bind), 0 if no TCP. */
    std::uint16_t boundTcpPort() const { return tcpPort; }

    /** The wrapped service (stats reporting in fermihedrald). */
    api::CompilerService &service() { return compiler; }

  private:
    struct ConnState;

    /** Per-connection ConnectionHandler bridging into the server. */
    struct Handler : ConnectionHandler
    {
        EncodingServer *server = nullptr;
        std::uint64_t connId = 0;

        void onCompile(std::uint64_t id,
                       std::string request_text) override;
        void onCancel(std::uint64_t id) override;
        std::string onMetrics() override;
    };

    /** One submitted compile awaiting its future. */
    struct PendingCompile
    {
        std::uint64_t connId = 0;
        std::uint64_t requestId = 0;
        std::future<api::CompilationResult> future;
    };

    void startCompile(std::uint64_t conn_id, std::uint64_t id,
                      std::string request_text);
    void cancelCompile(std::uint64_t conn_id, std::uint64_t id);

    void acceptAll(int listener_fd);
    void readConnection(ConnState &state);
    void flushConnection(ConnState &state);
    void reapCompletions();
    void closeFinished();

    ServerOptions options;
    api::CompilerService compiler;
    EventLoop loop;
    std::atomic<bool> stopRequested{false};

    int tcpListener = -1;
    int unixListener = -1;
    std::uint16_t tcpPort = 0;

    std::uint64_t nextConnId = 1;
    std::unordered_map<std::uint64_t, std::unique_ptr<ConnState>>
        connections;
    std::unordered_map<int, std::uint64_t> fdIndex;

    std::vector<PendingCompile> pending;
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             api::CancellationToken>
        cancelTokens;
};

} // namespace fermihedral::net

#endif // FERMIHEDRAL_NET_SERVER_H
