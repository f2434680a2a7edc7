#include "net/connection.h"

namespace fermihedral::net {

namespace {

/** Server identification echoed in WELCOME. */
constexpr std::string_view kBanner = "fermihedrald";

} // namespace

Connection::Connection(ConnectionHandler &handler) : handler(handler)
{
}

void
Connection::feed(std::string_view bytes)
{
    if (closing)
        return;
    decoder.feed(bytes);
    Frame frame;
    while (!closing && decoder.next(frame))
        handleFrame(std::move(frame));
    if (!closing && !decoder.error().empty())
        protocolError(0, decoder.error());
}

void
Connection::handleFrame(Frame &&frame)
{
    if (state == State::AwaitHello) {
        if (frame.type != MessageType::Hello) {
            protocolError(frame.requestId,
                          std::string("expected HELLO, got ") +
                              messageTypeName(frame.type));
            return;
        }
        const auto client_version =
            decodeHelloPayload(frame.payload);
        if (!client_version) {
            protocolError(0, "malformed HELLO payload");
            return;
        }
        if (*client_version < kMinProtocolVersion) {
            protocolError(
                0, "unsupported protocol version " +
                       std::to_string(*client_version) +
                       " (this server speaks " +
                       std::to_string(kMinProtocolVersion) + ".." +
                       std::to_string(kProtocolVersion) + ")");
            return;
        }
        version = std::min(*client_version, kProtocolVersion);
        send({MessageType::Welcome, 0,
              encodeWelcomePayload(version, kBanner)});
        state = State::Serving;
        return;
    }

    switch (frame.type) {
      case MessageType::Compile:
          if (frame.requestId == 0) {
              protocolError(0, "COMPILE with request id 0");
              return;
          }
          if (!inflightIds.insert(frame.requestId).second) {
              protocolError(frame.requestId,
                            "request id already in flight");
              return;
          }
          handler.onCompile(frame.requestId,
                            std::move(frame.payload));
          return;
      case MessageType::Cancel:
          // Cancelling an id that already completed (or never
          // existed) is an inherent race, not an error: no-op.
          if (inflightIds.count(frame.requestId))
              handler.onCancel(frame.requestId);
          return;
      case MessageType::Metrics:
          send({MessageType::MetricsResult, frame.requestId,
                handler.onMetrics()});
          return;
      case MessageType::Ping:
          send({MessageType::Pong, frame.requestId,
                std::move(frame.payload)});
          return;
      case MessageType::Hello:
          protocolError(0, "repeated HELLO");
          return;
      case MessageType::Welcome:
      case MessageType::Result:
      case MessageType::MetricsResult:
      case MessageType::Pong:
      case MessageType::Error:
          protocolError(frame.requestId,
                        std::string("server-only message type ") +
                            messageTypeName(frame.type));
          return;
    }
    protocolError(frame.requestId, "unhandled message type");
}

void
Connection::completeCompile(std::uint64_t id,
                            api::ResultStatus status,
                            std::string_view message,
                            std::string_view result_text)
{
    if (inflightIds.erase(id) == 0)
        return;
    if (closing)
        return;
    send({MessageType::Result, id,
          encodeResultPayload(status, message, result_text)});
}

void
Connection::consumeOutput(std::size_t n)
{
    output.erase(0, n);
}

void
Connection::protocolError(std::uint64_t id,
                          std::string_view message)
{
    send({MessageType::Error, id, std::string(message)});
    state = State::Closing;
    closing = true;
}

void
Connection::send(const Frame &frame)
{
    output += encodeFrame(frame);
}

} // namespace fermihedral::net
