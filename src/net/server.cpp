#include "net/server.h"

#include <chrono>
#include <unistd.h>

#include "api/serialize.h"
#include "common/logging.h"
#include "common/timer.h"
#include "net/socket.h"

namespace fermihedral::net {

namespace {

/** Poll timeout while compile futures are pending (ms). */
constexpr int kBusyPollMs = 2;

/** Poll timeout while fully idle (ms). */
constexpr int kIdlePollMs = 500;

/** Read chunk size per read() call. */
constexpr std::size_t kReadChunk = 64 * 1024;

} // namespace

/** One live peer: fd, protocol state, and the bridge handler. */
struct EncodingServer::ConnState
{
    std::uint64_t id = 0;
    int fd = -1;
    bool peerClosed = false;
    Handler handler;
    Connection conn;

    ConnState(EncodingServer *server, std::uint64_t conn_id,
              int conn_fd)
        : id(conn_id), fd(conn_fd), conn(handler)
    {
        handler.server = server;
        handler.connId = conn_id;
    }
};

void
EncodingServer::Handler::onCompile(std::uint64_t id,
                                   std::string request_text)
{
    server->startCompile(connId, id, std::move(request_text));
}

void
EncodingServer::Handler::onCancel(std::uint64_t id)
{
    server->cancelCompile(connId, id);
}

std::string
EncodingServer::Handler::onMetrics()
{
    return api::CompilerService::metricsJson();
}

EncodingServer::EncodingServer(const ServerOptions &options)
    : options(options), compiler(options.service)
{
    if (options.tcpHost.empty() && options.unixPath.empty())
        fatal("EncodingServer needs at least one listener "
              "(tcpHost or unixPath)");
    if (!options.tcpHost.empty()) {
        tcpListener =
            listenTcp(options.tcpHost, options.tcpPort, &tcpPort);
        setNonBlocking(tcpListener);
    }
    if (!options.unixPath.empty()) {
        unixListener =
            listenUnix(options.unixPath, options.unixMode);
        setNonBlocking(unixListener);
    }
}

EncodingServer::~EncodingServer()
{
    // Orphan every in-flight search before the service destructor
    // drains them: no point finishing work nobody will read.
    for (const auto &[key, token] : cancelTokens)
        token.requestCancel();
    for (const auto &[id, state] : connections)
        closeFd(state->fd);
    closeFd(tcpListener);
    closeFd(unixListener);
    if (!options.unixPath.empty())
        ::unlink(options.unixPath.c_str());
}

WarmReport
EncodingServer::warm(const std::vector<api::RequestSpec> &specs)
{
    WarmReport report;
    report.requests = specs.size();
    Timer timer;
    std::vector<api::CompilationRequest> requests;
    requests.reserve(specs.size());
    for (const api::RequestSpec &spec : specs)
        requests.push_back(api::buildRequest(spec));
    const auto results =
        compiler.compileBatch(std::move(requests));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const api::CompilationResult &result = results[i];
        if (result.status == api::ResultStatus::Ok)
            ++report.ok;
        else
            warn("warm: '", specs[i].problem, "' @",
                 specs[i].strategy, " ended ",
                 api::resultStatusName(result.status),
                 result.statusMessage.empty()
                     ? ""
                     : (": " + result.statusMessage));
        if (result.fromCache)
            ++report.fromCache;
    }
    report.seconds = timer.seconds();
    return report;
}

void
EncodingServer::startCompile(std::uint64_t conn_id,
                             std::uint64_t id,
                             std::string request_text)
{
    const auto it = connections.find(conn_id);
    if (it == connections.end())
        return;
    ConnState &state = *it->second;

    const auto spec = api::tryParseRequestSpec(request_text);
    if (!spec) {
        state.conn.completeCompile(
            id, api::ResultStatus::Error,
            "malformed request payload (expected the "
            "fermihedral-request v1 format)",
            "");
        return;
    }
    std::string error;
    auto request = api::tryBuildRequest(*spec, &error);
    if (!request) {
        state.conn.completeCompile(id, api::ResultStatus::Error,
                                   error, "");
        return;
    }
    cancelTokens.emplace(std::make_pair(conn_id, id),
                         request->cancellation);
    PendingCompile entry;
    entry.connId = conn_id;
    entry.requestId = id;
    entry.future = compiler.submit(*std::move(request));
    pending.push_back(std::move(entry));
}

void
EncodingServer::cancelCompile(std::uint64_t conn_id,
                              std::uint64_t id)
{
    const auto it = cancelTokens.find({conn_id, id});
    if (it != cancelTokens.end())
        it->second.requestCancel();
}

void
EncodingServer::acceptAll(int listener_fd)
{
    for (;;) {
        const int fd = acceptConnection(listener_fd);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        setTcpNoDelay(fd);
        const std::uint64_t id = nextConnId++;
        connections.emplace(
            id, std::make_unique<ConnState>(this, id, fd));
        fdIndex.emplace(fd, id);
    }
}

void
EncodingServer::readConnection(ConnState &state)
{
    char buffer[kReadChunk];
    for (;;) {
        bool would_block = false;
        const long n =
            readSome(state.fd, buffer, sizeof buffer, &would_block);
        if (n > 0) {
            state.conn.feed(
                std::string_view(buffer,
                                 static_cast<std::size_t>(n)));
            continue;
        }
        if (would_block)
            return;
        // Orderly close or hard error: either way the peer is gone.
        state.peerClosed = true;
        return;
    }
}

void
EncodingServer::flushConnection(ConnState &state)
{
    while (state.conn.hasOutput()) {
        const std::string_view out = state.conn.pendingOutput();
        bool would_block = false;
        const long n = writeSome(state.fd, out.data(), out.size(),
                                 &would_block);
        if (n > 0) {
            state.conn.consumeOutput(
                static_cast<std::size_t>(n));
            continue;
        }
        if (would_block)
            return;
        state.peerClosed = true;
        return;
    }
}

void
EncodingServer::reapCompletions()
{
    for (std::size_t i = 0; i < pending.size();) {
        PendingCompile &entry = pending[i];
        if (entry.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ++i;
            continue;
        }
        // submit() futures never throw: failures are Error results.
        const api::CompilationResult result = entry.future.get();
        cancelTokens.erase({entry.connId, entry.requestId});
        const auto it = connections.find(entry.connId);
        if (it != connections.end()) {
            // Shed and Error results carry no encoding; everything
            // else ships the full serialized result.
            const bool has_payload =
                result.status != api::ResultStatus::Shed &&
                result.status != api::ResultStatus::Error;
            it->second->conn.completeCompile(
                entry.requestId, result.status,
                result.statusMessage,
                has_payload ? api::serializeResult(result) : "");
        }
        pending[i] = std::move(pending.back());
        pending.pop_back();
    }
}

void
EncodingServer::closeFinished()
{
    for (auto it = connections.begin();
         it != connections.end();) {
        ConnState &state = *it->second;
        const bool drained =
            state.conn.shouldClose() && !state.conn.hasOutput();
        if (!state.peerClosed && !drained) {
            ++it;
            continue;
        }
        // Cancel whatever the dead peer still had in flight; the
        // futures finish on the pool and are dropped on reap.
        for (auto token = cancelTokens.lower_bound(
                 {state.id, 0});
             token != cancelTokens.end() &&
             token->first.first == state.id;
             ++token)
            token->second.requestCancel();
        fdIndex.erase(state.fd);
        closeFd(state.fd);
        it = connections.erase(it);
    }
}

void
EncodingServer::run()
{
    std::vector<Interest> interests;
    while (!stopRequested.load(std::memory_order_relaxed)) {
        interests.clear();
        if (tcpListener >= 0)
            interests.push_back({tcpListener, true, false});
        if (unixListener >= 0)
            interests.push_back({unixListener, true, false});
        for (const auto &[id, state] : connections)
            interests.push_back({state->fd, true,
                                 state->conn.hasOutput()});

        const int timeout =
            pending.empty() ? kIdlePollMs : kBusyPollMs;
        const std::vector<Event> events =
            loop.poll(interests, timeout);

        for (const Event &event : events) {
            if (event.fd == tcpListener ||
                event.fd == unixListener) {
                acceptAll(event.fd);
                continue;
            }
            const auto idx = fdIndex.find(event.fd);
            if (idx == fdIndex.end())
                continue;
            ConnState &state = *connections.at(idx->second);
            if (event.readable)
                readConnection(state);
        }

        reapCompletions();

        // Opportunistic flush: most sockets are writable, and
        // waiting for the next POLLOUT round-trip would add a poll
        // cycle to every response.
        for (const auto &[id, state] : connections)
            if (state->conn.hasOutput() && !state->peerClosed)
                flushConnection(*state);

        closeFinished();
    }
}

void
EncodingServer::stop()
{
    stopRequested.store(true, std::memory_order_relaxed);
    loop.wake();
}

} // namespace fermihedral::net
