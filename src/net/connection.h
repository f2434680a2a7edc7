/**
 * @file
 * The per-connection protocol state machine of the encoding
 * service. A Connection owns no socket: bytes from the peer go in
 * through feed(), bytes for the peer come out through
 * pendingOutput()/consumeOutput() — which is what makes partial
 * reads, short writes and the whole state machine unit-testable
 * without a file descriptor (tests/test_net_frame.cpp). The event
 * loop (net/server.h) moves bytes between this object and the fd.
 *
 * Lifecycle: AwaitHello -> Serving -> Closing. The first frame
 * must be HELLO (version negotiation, docs/PROTOCOL.md); after the
 * WELCOME reply the connection serves pipelined COMPILE / CANCEL /
 * METRICS / PING traffic. Responses are queued by completeCompile()
 * in completion order, not submission order — out-of-order
 * responses keyed by request id are the point of pipelining.
 *
 * Key invariants:
 *  - feed() never throws and never blocks: every protocol
 *    violation (malformed frame, bad handshake, duplicate
 *    in-flight id, server-only message type) queues one ERROR
 *    frame and moves to Closing; the caller closes the socket once
 *    the output drains (shouldClose() && !hasOutput()).
 *  - Request ids are tracked while in flight: completeCompile()
 *    for an id that is not in flight is a no-op (the request was
 *    answered as a protocol error, or raced a close), so the
 *    handler may always complete without re-checking liveness.
 *  - Output is a single FIFO byte queue; consumeOutput(n) with any
 *    n <= size is legal, so a transport that writes one byte at a
 *    time still emits exactly the queued frames.
 */

#ifndef FERMIHEDRAL_NET_CONNECTION_H
#define FERMIHEDRAL_NET_CONNECTION_H

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

#include "net/frame.h"

namespace fermihedral::net {

/** What a Connection asks of the daemon behind it. */
class ConnectionHandler
{
  public:
    virtual ~ConnectionHandler() = default;

    /**
     * A COMPILE frame arrived: start compiling `request_text` (the
     * versioned api::RequestSpec rendering) and eventually call
     * Connection::completeCompile(id, ...). May complete
     * synchronously (warm cache) or much later (SAT search).
     */
    virtual void onCompile(std::uint64_t id,
                           std::string request_text) = 0;

    /** A CANCEL frame arrived for an id still in flight. */
    virtual void onCancel(std::uint64_t id) = 0;

    /** A METRICS frame arrived; return the metrics JSON document. */
    virtual std::string onMetrics() = 0;
};

/** Protocol state machine for one peer (see file docs). */
class Connection
{
  public:
    explicit Connection(ConnectionHandler &handler);

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    // --- input path ------------------------------------------
    /** Process bytes read from the peer. */
    void feed(std::string_view bytes);

    // --- completion path -------------------------------------
    /**
     * Queue the RESULT frame for an in-flight compile. No-op when
     * `id` is not in flight (already failed or connection racing
     * shutdown). `result_text` is empty for Shed/Error results.
     */
    void completeCompile(std::uint64_t id,
                         api::ResultStatus status,
                         std::string_view message,
                         std::string_view result_text);

    // --- output path -----------------------------------------
    /** Bytes waiting to be written to the peer. */
    std::string_view pendingOutput() const { return output; }

    bool hasOutput() const { return !output.empty(); }

    /** Drop the first n output bytes (they were written). */
    void consumeOutput(std::size_t n);

    // --- lifecycle -------------------------------------------
    /**
     * The connection hit a fatal protocol error (or the peer was
     * told ERROR); close the socket once output is drained.
     */
    bool shouldClose() const { return closing; }

    /** True while `id` awaits its RESULT frame. */
    bool inFlight(std::uint64_t id) const
    {
        return inflightIds.count(id) != 0;
    }

    std::size_t inFlightCount() const { return inflightIds.size(); }

    /** Negotiated protocol version (0 before the handshake). */
    std::uint32_t negotiatedVersion() const { return version; }

  private:
    enum class State { AwaitHello, Serving, Closing };

    void handleFrame(Frame &&frame);

    /** Queue ERROR (request id `id`) and move to Closing. */
    void protocolError(std::uint64_t id, std::string_view message);

    void send(const Frame &frame);

    ConnectionHandler &handler;
    FrameDecoder decoder;
    std::string output;
    std::unordered_set<std::uint64_t> inflightIds;
    State state = State::AwaitHello;
    bool closing = false;
    std::uint32_t version = 0;
};

} // namespace fermihedral::net

#endif // FERMIHEDRAL_NET_CONNECTION_H
