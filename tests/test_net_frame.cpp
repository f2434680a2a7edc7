/**
 * @file
 * Wire-protocol conformance tests for the net/ layer. The byte
 * fixtures here are transcribed from the worked examples and
 * tables of docs/PROTOCOL.md — the document is normative and these
 * tests keep src/net/frame.h honest against it (including the
 * protocolVersion constant). The Connection tests drive the
 * IO-free per-connection state machine through partial reads,
 * short writes, pipelined out-of-order completion and every
 * protocol-error path.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/model_spec.h"
#include "api/serialize.h"
#include "net/connection.h"
#include "net/frame.h"

namespace fermihedral::net {
namespace {

std::string
bytes(std::initializer_list<unsigned> values)
{
    std::string out;
    for (unsigned v : values)
        out.push_back(static_cast<char>(v));
    return out;
}

/** Feed a full byte string and expect exactly one frame. */
Frame
decodeOne(const std::string &wire)
{
    FrameDecoder decoder;
    decoder.feed(wire);
    Frame frame;
    EXPECT_TRUE(decoder.next(frame)) << decoder.error();
    EXPECT_TRUE(decoder.error().empty()) << decoder.error();
    EXPECT_FALSE(decoder.next(frame));
    return frame;
}

// ---------------------------------------------------------------
// Constants: PROTOCOL.md's numbers are the contract.
// ---------------------------------------------------------------

TEST(NetFrame, ConstantsMatchProtocolDocument)
{
    // docs/PROTOCOL.md: protocolVersion = 1, minProtocolVersion = 1,
    // maxPayloadBytes = 8388608. A mismatch here means the document
    // and the code were not updated in the same commit.
    EXPECT_EQ(kProtocolVersion, 1u);
    EXPECT_EQ(kMinProtocolVersion, 1u);
    EXPECT_EQ(kMaxPayloadBytes, 8388608u);
    EXPECT_EQ(kHeaderBytes, 13u);
    EXPECT_EQ(kFrameOverheadBytes, 9u);
}

TEST(NetFrame, MessageTypeBytesMatchProtocolDocument)
{
    EXPECT_EQ(static_cast<unsigned>(MessageType::Hello), 0x01u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Welcome), 0x02u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Compile), 0x03u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Result), 0x04u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Cancel), 0x05u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Metrics), 0x06u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::MetricsResult),
              0x07u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Ping), 0x08u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Pong), 0x09u);
    EXPECT_EQ(static_cast<unsigned>(MessageType::Error), 0x7fu);
    for (unsigned known : {0x01u, 0x02u, 0x03u, 0x04u, 0x05u, 0x06u,
                           0x07u, 0x08u, 0x09u, 0x7fu})
        EXPECT_TRUE(
            isKnownMessageType(static_cast<std::uint8_t>(known)));
    EXPECT_FALSE(isKnownMessageType(0x00));
    EXPECT_FALSE(isKnownMessageType(0x0a));
    EXPECT_FALSE(isKnownMessageType(0xff));
}

TEST(NetFrame, StatusCodesMatchProtocolDocument)
{
    EXPECT_EQ(statusToCode(api::ResultStatus::Ok), 0u);
    EXPECT_EQ(statusToCode(api::ResultStatus::DeadlineExceeded), 1u);
    EXPECT_EQ(statusToCode(api::ResultStatus::Cancelled), 2u);
    EXPECT_EQ(statusToCode(api::ResultStatus::Shed), 3u);
    EXPECT_EQ(statusToCode(api::ResultStatus::Error), 4u);
    for (auto status :
         {api::ResultStatus::Ok, api::ResultStatus::DeadlineExceeded,
          api::ResultStatus::Cancelled, api::ResultStatus::Shed,
          api::ResultStatus::Error})
        EXPECT_EQ(statusFromCode(statusToCode(status)), status);
    EXPECT_FALSE(statusFromCode(5).has_value());
    EXPECT_FALSE(statusFromCode(0xff).has_value());
}

// ---------------------------------------------------------------
// Worked examples: the exact hex dumps of docs/PROTOCOL.md.
// ---------------------------------------------------------------

TEST(NetFrame, HelloFixture)
{
    const std::string wire =
        bytes({0x0d, 0x00, 0x00, 0x00,                         //
               0x01,                                           //
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
               0x01, 0x00, 0x00, 0x00});
    EXPECT_EQ(encodeFrame({MessageType::Hello, 0,
                           encodeHelloPayload(kProtocolVersion)}),
              wire);
    const Frame frame = decodeOne(wire);
    EXPECT_EQ(frame.type, MessageType::Hello);
    EXPECT_EQ(frame.requestId, 0u);
    EXPECT_EQ(decodeHelloPayload(frame.payload),
              std::optional<std::uint32_t>(1));
}

TEST(NetFrame, WelcomeFixture)
{
    const std::string wire =
        bytes({0x19, 0x00, 0x00, 0x00,                         //
               0x02,                                           //
               0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
               0x01, 0x00, 0x00, 0x00}) +
        "fermihedrald";
    EXPECT_EQ(encodeFrame({MessageType::Welcome, 0,
                           encodeWelcomePayload(1, "fermihedrald")}),
              wire);
    const Frame frame = decodeOne(wire);
    const auto welcome = decodeWelcomePayload(frame.payload);
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(welcome->version, 1u);
    EXPECT_EQ(welcome->banner, "fermihedrald");
}

TEST(NetFrame, PingFixture)
{
    const std::string wire =
        bytes({0x0b, 0x00, 0x00, 0x00,                         //
               0x08,                                           //
               0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
               0x68, 0x69});
    EXPECT_EQ(encodeFrame({MessageType::Ping, 7, "hi"}), wire);
    const Frame frame = decodeOne(wire);
    EXPECT_EQ(frame.type, MessageType::Ping);
    EXPECT_EQ(frame.requestId, 7u);
    EXPECT_EQ(frame.payload, "hi");
}

TEST(NetFrame, CancelFixture)
{
    const std::string wire =
        bytes({0x09, 0x00, 0x00, 0x00, //
               0x05,                   //
               0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
    EXPECT_EQ(encodeFrame({MessageType::Cancel, 3, ""}), wire);
    const Frame frame = decodeOne(wire);
    EXPECT_EQ(frame.type, MessageType::Cancel);
    EXPECT_EQ(frame.requestId, 3u);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrame, ResultShedFixture)
{
    const std::string wire =
        bytes({0x16, 0x00, 0x00, 0x00,                         //
               0x04,                                           //
               0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
               0x03,                                           //
               0x0a, 0x00}) +
        "queue full";
    EXPECT_EQ(encodeFrame(
                  {MessageType::Result, 2,
                   encodeResultPayload(api::ResultStatus::Shed,
                                       "queue full", "")}),
              wire);
    const Frame frame = decodeOne(wire);
    const auto result = decodeResultPayload(frame.payload);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, api::ResultStatus::Shed);
    EXPECT_EQ(result->message, "queue full");
    EXPECT_TRUE(result->resultText.empty());
}

TEST(NetFrame, CompileFixture)
{
    // The defaults-only request of the document's COMPILE example:
    // a 141-byte payload, so the length prefix reads 150 = 0x96.
    api::RequestSpec spec;
    spec.problem = "modes:3";
    const std::string payload = api::serializeRequestSpec(spec);
    EXPECT_EQ(payload,
              "fermihedral-request v1\n"
              "problem modes:3\n"
              "strategy sat\n"
              "objective auto\n"
              "alg 1\n"
              "vac 1\n"
              "step-timeout 0x1.ep+3\n"
              "total-timeout 0x1.68p+5\n"
              "deadline 0x0p+0\n");
    EXPECT_EQ(payload.size(), 141u);
    const std::string wire = encodeFrame(
        {MessageType::Compile, 1, payload});
    EXPECT_EQ(wire.substr(0, kHeaderBytes),
              bytes({0x96, 0x00, 0x00, 0x00, //
                     0x03,                   //
                     0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x00}));
    const auto parsed = api::tryParseRequestSpec(payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->problem, "modes:3");
    EXPECT_EQ(parsed->strategy, "sat");
    EXPECT_DOUBLE_EQ(parsed->stepTimeoutSeconds, 15.0);
    EXPECT_DOUBLE_EQ(parsed->totalTimeoutSeconds, 45.0);
    EXPECT_DOUBLE_EQ(parsed->deadlineSeconds, 0.0);
}

TEST(NetFrame, CompileSpecTopologyLineRoundTrips)
{
    // The optional tenth line: emitted only when the spec carries a
    // topology, so the fixture above stays byte-identical.
    api::RequestSpec spec;
    spec.problem = "h2";
    spec.strategy = "pick-routed";
    spec.objective = api::Objective::RoutedCost;
    spec.topology = "grid:2x4";
    const std::string payload = api::serializeRequestSpec(spec);
    EXPECT_NE(payload.find("\ntopology grid:2x4\n"),
              std::string::npos);

    const auto parsed = api::tryParseRequestSpec(payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->topology, "grid:2x4");
    EXPECT_EQ(parsed->objective, api::Objective::RoutedCost);
    EXPECT_EQ(parsed->strategy, "pick-routed");
    EXPECT_EQ(api::serializeRequestSpec(*parsed), payload);
}

TEST(NetFrame, CompileSpecRejectsBadTopologyCombinations)
{
    // The wire parser checks syntax only; tryBuildRequest rejects
    // what cannot compile, with a diagnostic the daemon returns in
    // a typed Error result.
    const auto rejection = [](const std::string &payload) {
        const auto parsed = api::tryParseRequestSpec(payload);
        if (!parsed)
            return std::string("malformed");
        std::string error;
        EXPECT_FALSE(api::tryBuildRequest(*parsed, &error).has_value());
        return error;
    };
    api::RequestSpec spec;
    spec.problem = "h2";
    spec.topology = "grid:2x4";
    const std::string good = api::serializeRequestSpec(spec);
    const auto parsed = api::tryParseRequestSpec(good);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(api::tryBuildRequest(*parsed, nullptr).has_value());

    // routed-cost with no topology line could never compile.
    api::RequestSpec routed;
    routed.problem = "h2";
    routed.objective = api::Objective::RoutedCost;
    std::string no_topology = api::serializeRequestSpec(routed);
    EXPECT_EQ(no_topology.find("topology"), std::string::npos);
    EXPECT_NE(rejection(no_topology).find("needs a topology"),
              std::string::npos);

    // A topology line that names no real topology is rejected with
    // the topology parser's diagnostic, not a deferred fatal.
    std::string bad = good;
    const auto pos = bad.find("grid:2x4");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 8, "gird:2x4");
    EXPECT_NE(rejection(bad).find("gird"), std::string::npos);

    // Trailing bytes after the topology line are corruption.
    EXPECT_FALSE(
        api::tryParseRequestSpec(good + "junk 1\n").has_value());
}

// ---------------------------------------------------------------
// Payload codecs: round trips and rejection.
// ---------------------------------------------------------------

TEST(NetFrame, HelloPayloadRejectsWrongSizes)
{
    EXPECT_FALSE(decodeHelloPayload("").has_value());
    EXPECT_FALSE(decodeHelloPayload("abc").has_value());
    EXPECT_FALSE(decodeHelloPayload("abcde").has_value());
    EXPECT_EQ(decodeHelloPayload(encodeHelloPayload(0x01020304)),
              std::optional<std::uint32_t>(0x01020304));
}

TEST(NetFrame, WelcomePayloadRejectsTruncation)
{
    EXPECT_FALSE(decodeWelcomePayload("").has_value());
    EXPECT_FALSE(decodeWelcomePayload("abc").has_value());
    const auto empty_banner = decodeWelcomePayload(
        encodeWelcomePayload(kProtocolVersion, ""));
    ASSERT_TRUE(empty_banner.has_value());
    EXPECT_TRUE(empty_banner->banner.empty());
}

TEST(NetFrame, ResultPayloadRoundTripsAndRejects)
{
    const std::string text = "fermihedral-result v1\nnot really\n";
    const std::string payload = encodeResultPayload(
        api::ResultStatus::DeadlineExceeded, "past deadline", text);
    const auto decoded = decodeResultPayload(payload);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->status, api::ResultStatus::DeadlineExceeded);
    EXPECT_EQ(decoded->message, "past deadline");
    EXPECT_EQ(decoded->resultText, text);

    // Too short for the fixed header.
    EXPECT_FALSE(decodeResultPayload("").has_value());
    EXPECT_FALSE(decodeResultPayload(bytes({0x00, 0x01})).has_value());
    // Message length pointing past the end.
    EXPECT_FALSE(
        decodeResultPayload(bytes({0x00, 0x05, 0x00, 'h', 'i'}))
            .has_value());
    // Unknown status code.
    EXPECT_FALSE(
        decodeResultPayload(bytes({0x09, 0x00, 0x00})).has_value());
}

// ---------------------------------------------------------------
// FrameDecoder: incremental input and hostile streams.
// ---------------------------------------------------------------

TEST(NetFrame, DecoderReassemblesByteAtATime)
{
    const std::string wire =
        encodeFrame({MessageType::Ping, 42, "partial reads"}) +
        encodeFrame({MessageType::Cancel, 7, ""});
    FrameDecoder decoder;
    std::vector<Frame> frames;
    Frame frame;
    for (char byte : wire) {
        decoder.feed(std::string_view(&byte, 1));
        while (decoder.next(frame))
            frames.push_back(frame);
    }
    ASSERT_TRUE(decoder.error().empty()) << decoder.error();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, MessageType::Ping);
    EXPECT_EQ(frames[0].requestId, 42u);
    EXPECT_EQ(frames[0].payload, "partial reads");
    EXPECT_EQ(frames[1].type, MessageType::Cancel);
    EXPECT_EQ(frames[1].requestId, 7u);
}

TEST(NetFrame, DecoderHandlesCoalescedFrames)
{
    // Several frames in one feed() — the TCP fast path.
    std::string wire;
    for (std::uint64_t id = 1; id <= 5; ++id)
        wire += encodeFrame(
            {MessageType::Ping, id, std::string(id, 'x')});
    FrameDecoder decoder;
    decoder.feed(wire);
    Frame frame;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        ASSERT_TRUE(decoder.next(frame));
        EXPECT_EQ(frame.requestId, id);
        EXPECT_EQ(frame.payload.size(), id);
    }
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetFrame, DecoderRejectsOversizedDeclaredLength)
{
    // length = 9 + kMaxPayloadBytes + 1: poisoned from the header
    // alone, before any payload is buffered.
    const std::uint32_t length =
        static_cast<std::uint32_t>(kFrameOverheadBytes +
                                   kMaxPayloadBytes + 1);
    std::string header;
    for (int shift = 0; shift < 32; shift += 8)
        header.push_back(
            static_cast<char>((length >> shift) & 0xff));
    FrameDecoder decoder;
    decoder.feed(header);
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_FALSE(decoder.error().empty());
    EXPECT_LT(decoder.buffered(), kMaxPayloadBytes);

    // A poisoned decoder stays poisoned.
    decoder.feed(encodeFrame({MessageType::Ping, 1, ""}));
    EXPECT_FALSE(decoder.next(frame));
}

TEST(NetFrame, DecoderRejectsUndersizedDeclaredLength)
{
    // length = 8 < 9: no room for type + request id.
    FrameDecoder decoder;
    decoder.feed(bytes({0x08, 0x00, 0x00, 0x00}));
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_FALSE(decoder.error().empty());
}

TEST(NetFrame, DecoderRejectsUnknownType)
{
    FrameDecoder decoder;
    decoder.feed(bytes({0x09, 0x00, 0x00, 0x00, //
                        0x0a,                   // not a MessageType
                        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                        0x00}));
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_FALSE(decoder.error().empty());
}

TEST(NetFrame, DecoderWaitsOnTruncatedFrame)
{
    // A valid header with only half the payload: not an error, just
    // not a frame yet.
    const std::string wire =
        encodeFrame({MessageType::Ping, 9, "0123456789"});
    FrameDecoder decoder;
    decoder.feed(wire.substr(0, wire.size() - 5));
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.error().empty());
    decoder.feed(wire.substr(wire.size() - 5));
    ASSERT_TRUE(decoder.next(frame));
    EXPECT_EQ(frame.payload, "0123456789");
}

// ---------------------------------------------------------------
// Connection: the per-peer protocol state machine.
// ---------------------------------------------------------------

/** Records handler calls; completes nothing on its own. */
struct RecordingHandler : ConnectionHandler
{
    std::vector<std::pair<std::uint64_t, std::string>> compiles;
    std::vector<std::uint64_t> cancels;

    void
    onCompile(std::uint64_t id, std::string request_text) override
    {
        compiles.emplace_back(id, std::move(request_text));
    }

    void
    onCancel(std::uint64_t id) override
    {
        cancels.push_back(id);
    }

    std::string
    onMetrics() override
    {
        return "{\"metrics\":true}";
    }
};

/** Drain and decode every queued output frame. */
std::vector<Frame>
drainOutput(Connection &connection, std::size_t write_chunk = 0)
{
    FrameDecoder decoder;
    while (connection.hasOutput()) {
        const std::string_view view = connection.pendingOutput();
        const std::size_t n = write_chunk == 0
                                  ? view.size()
                                  : std::min(write_chunk,
                                             view.size());
        decoder.feed(view.substr(0, n));
        connection.consumeOutput(n);
    }
    std::vector<Frame> frames;
    Frame frame;
    while (decoder.next(frame))
        frames.push_back(frame);
    EXPECT_TRUE(decoder.error().empty()) << decoder.error();
    return frames;
}

std::string
helloWire(std::uint32_t version = kProtocolVersion)
{
    return encodeFrame(
        {MessageType::Hello, 0, encodeHelloPayload(version)});
}

TEST(NetConnection, HandshakeThenPing)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    EXPECT_EQ(connection.negotiatedVersion(), kProtocolVersion);
    connection.feed(encodeFrame({MessageType::Ping, 5, "probe"}));

    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, MessageType::Welcome);
    const auto welcome = decodeWelcomePayload(frames[0].payload);
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(welcome->version, kProtocolVersion);
    EXPECT_EQ(welcome->banner, "fermihedrald");
    EXPECT_EQ(frames[1].type, MessageType::Pong);
    EXPECT_EQ(frames[1].requestId, 5u);
    EXPECT_EQ(frames[1].payload, "probe");
    EXPECT_FALSE(connection.shouldClose());
}

TEST(NetConnection, NewerClientNegotiatesDownToOurs)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire(kProtocolVersion + 7));
    EXPECT_EQ(connection.negotiatedVersion(), kProtocolVersion);
    EXPECT_FALSE(connection.shouldClose());
}

TEST(NetConnection, TooOldClientIsRejected)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire(0));
    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, MessageType::Error);
    EXPECT_TRUE(connection.shouldClose());
}

TEST(NetConnection, FirstFrameMustBeHello)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(encodeFrame({MessageType::Ping, 1, ""}));
    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, MessageType::Error);
    EXPECT_TRUE(connection.shouldClose());
}

TEST(NetConnection, MalformedHelloPayloadIsRejected)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(encodeFrame({MessageType::Hello, 0, "abc"}));
    EXPECT_TRUE(connection.shouldClose());
}

TEST(NetConnection, PipelinedOutOfOrderCompletion)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Compile, 1, "one"}));
    connection.feed(encodeFrame({MessageType::Compile, 2, "two"}));
    connection.feed(encodeFrame({MessageType::Compile, 3, "three"}));
    ASSERT_EQ(handler.compiles.size(), 3u);
    EXPECT_EQ(connection.inFlightCount(), 3u);
    EXPECT_TRUE(connection.inFlight(2));

    // Completion order 2, 3, 1 — the output must preserve it.
    connection.completeCompile(2, api::ResultStatus::Ok, "", "r2");
    connection.completeCompile(3, api::ResultStatus::Ok, "", "r3");
    connection.completeCompile(1, api::ResultStatus::Ok, "", "r1");
    EXPECT_EQ(connection.inFlightCount(), 0u);

    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 4u); // WELCOME + 3 RESULTs
    EXPECT_EQ(frames[1].requestId, 2u);
    EXPECT_EQ(frames[2].requestId, 3u);
    EXPECT_EQ(frames[3].requestId, 1u);
    const auto r2 = decodeResultPayload(frames[1].payload);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->resultText, "r2");

    // A retired id is reusable without tripping the duplicate check.
    connection.feed(encodeFrame({MessageType::Compile, 2, "again"}));
    EXPECT_FALSE(connection.shouldClose());
    EXPECT_TRUE(connection.inFlight(2));
}

TEST(NetConnection, ShortWritesEmitIdenticalBytes)
{
    // The same traffic drained one byte at a time must decode to
    // the same frames — consumeOutput(n) with any n is legal.
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Compile, 8, "spec"}));
    connection.completeCompile(8, api::ResultStatus::Ok, "",
                               "payload");
    const auto frames = drainOutput(connection, 1);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1].type, MessageType::Result);
    EXPECT_EQ(frames[1].requestId, 8u);
}

TEST(NetConnection, DuplicateInFlightIdIsProtocolError)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Compile, 4, "a"}));
    connection.feed(encodeFrame({MessageType::Compile, 4, "b"}));
    EXPECT_TRUE(connection.shouldClose());
    EXPECT_EQ(handler.compiles.size(), 1u);
    const auto frames = drainOutput(connection);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back().type, MessageType::Error);
    EXPECT_EQ(frames.back().requestId, 4u);
}

TEST(NetConnection, CompileIdZeroIsProtocolError)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Compile, 0, "a"}));
    EXPECT_TRUE(connection.shouldClose());
    EXPECT_TRUE(handler.compiles.empty());
}

TEST(NetConnection, CancelReachesHandlerOnlyWhileInFlight)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Cancel, 9, ""}));
    EXPECT_TRUE(handler.cancels.empty()); // no-op, not an error
    EXPECT_FALSE(connection.shouldClose());

    connection.feed(encodeFrame({MessageType::Compile, 9, "work"}));
    connection.feed(encodeFrame({MessageType::Cancel, 9, ""}));
    ASSERT_EQ(handler.cancels.size(), 1u);
    EXPECT_EQ(handler.cancels[0], 9u);

    // The cancelled request still completes with exactly one RESULT.
    connection.completeCompile(9, api::ResultStatus::Cancelled,
                               "cancelled by client", "best");
    const auto frames = drainOutput(connection);
    const auto result = decodeResultPayload(frames.back().payload);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, api::ResultStatus::Cancelled);
    EXPECT_EQ(result->resultText, "best");
}

TEST(NetConnection, CompletingUnknownIdIsNoOp)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    drainOutput(connection);
    connection.completeCompile(123, api::ResultStatus::Ok, "", "x");
    EXPECT_FALSE(connection.hasOutput());
}

TEST(NetConnection, MetricsRoundTrip)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(encodeFrame({MessageType::Metrics, 6, ""}));
    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[1].type, MessageType::MetricsResult);
    EXPECT_EQ(frames[1].requestId, 6u);
    EXPECT_EQ(frames[1].payload, "{\"metrics\":true}");
}

TEST(NetConnection, ServerOnlyTypesAreProtocolErrors)
{
    for (MessageType type :
         {MessageType::Welcome, MessageType::Result,
          MessageType::MetricsResult, MessageType::Pong,
          MessageType::Error}) {
        RecordingHandler handler;
        Connection connection(handler);
        connection.feed(helloWire());
        connection.feed(encodeFrame({type, 1, ""}));
        EXPECT_TRUE(connection.shouldClose())
            << messageTypeName(type);
    }
}

TEST(NetConnection, RepeatedHelloIsProtocolError)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    connection.feed(helloWire());
    EXPECT_TRUE(connection.shouldClose());
}

TEST(NetConnection, MalformedStreamQueuesErrorAndCloses)
{
    RecordingHandler handler;
    Connection connection(handler);
    connection.feed(helloWire());
    drainOutput(connection);
    // A declared length below the 9-byte floor poisons the decoder;
    // the connection must surface it as an ERROR frame and close.
    connection.feed(bytes({0x01, 0x00, 0x00, 0x00}));
    EXPECT_TRUE(connection.shouldClose());
    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, MessageType::Error);

    // Feeding a closed connection does nothing.
    connection.feed(encodeFrame({MessageType::Ping, 1, ""}));
    EXPECT_FALSE(connection.hasOutput());
}

TEST(NetConnection, PartialReadsDriveTheStateMachine)
{
    // The whole session delivered one byte per feed() call.
    RecordingHandler handler;
    Connection connection(handler);
    const std::string session =
        helloWire() +
        encodeFrame({MessageType::Compile, 11, "spec-a"}) +
        encodeFrame({MessageType::Ping, 12, "p"});
    for (char byte : session)
        connection.feed(std::string_view(&byte, 1));
    ASSERT_EQ(handler.compiles.size(), 1u);
    EXPECT_EQ(handler.compiles[0].second, "spec-a");
    connection.completeCompile(11, api::ResultStatus::Ok, "", "ra");
    const auto frames = drainOutput(connection);
    ASSERT_EQ(frames.size(), 3u); // WELCOME, PONG, RESULT
    EXPECT_EQ(frames[1].type, MessageType::Pong);
    EXPECT_EQ(frames[2].type, MessageType::Result);
}

} // namespace
} // namespace fermihedral::net
