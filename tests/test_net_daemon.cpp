/**
 * @file
 * End-to-end daemon tests: a real EncodingServer on a real
 * unix-domain socket, driven by the blocking EncodingClient. These
 * are the over-the-wire counterparts of the serving-layer suites:
 * daemon results must be bit-identical to in-process compilation,
 * deadlines and cancellation must propagate through COMPILE/CANCEL
 * frames into the running search, malformed requests must degrade
 * to typed error RESULTs on a healthy connection, and the sharded
 * persistent store must survive a daemon restart without
 * recomputing anything.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>

#include "api/model_spec.h"
#include "api/serialize.h"
#include "api/service.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"

namespace fermihedral::net {
namespace {

/** A temp dir per fixture; keeps unix paths short and unique. */
class NetDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("fh-net-" +
               std::to_string(static_cast<unsigned>(::getpid())) +
               "-" +
               std::to_string(counter++));
        std::filesystem::create_directories(dir);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string
    socketPath() const
    {
        return (dir / "d.sock").string();
    }

    std::filesystem::path dir;
    static int counter;
};

int NetDaemonTest::counter = 0;

/** An EncodingServer running its loop on a background thread. */
class RunningDaemon
{
  public:
    explicit RunningDaemon(const ServerOptions &options)
        : server(options), loop([this] { server.run(); })
    {
    }

    ~RunningDaemon()
    {
        server.stop();
        loop.join();
    }

    EncodingServer server;

  private:
    std::thread loop;
};

TEST_F(NetDaemonTest, ResultsAreBitIdenticalToInProcess)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());
    EXPECT_EQ(client.version(), kProtocolVersion);
    EXPECT_EQ(client.banner(), "fermihedrald");

    // Same spec through a fresh in-process service: the daemon adds
    // transport, not semantics, so the serialized results must match
    // byte for byte — closed-form and SAT strategies alike (the
    // search is deterministic at fixed budgets).
    api::CompilerService local;
    std::uint64_t id = 0;
    for (const char *strategy : {"bravyi-kitaev", "sat"}) {
        api::RequestSpec spec;
        spec.problem = "modes:3";
        spec.strategy = strategy;
        const CompileReply reply = client.compile(++id, spec);
        ASSERT_EQ(reply.status, api::ResultStatus::Ok) << strategy;

        std::string error;
        const auto request = api::tryBuildRequest(spec, &error);
        ASSERT_TRUE(request.has_value()) << strategy;
        const std::string expected =
            api::serializeResult(local.compile(*request));
        EXPECT_EQ(reply.resultText, expected) << strategy;
    }
}

TEST_F(NetDaemonTest, CancelInFlightOverTheSocket)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    // A search far too large to finish: 16 Majorana operators keep
    // the SAT descent busy for minutes, so the CANCEL lands while
    // the solve is genuinely in flight.
    api::RequestSpec spec;
    spec.problem = "modes:8";
    spec.strategy = "sat";
    spec.stepTimeoutSeconds = 120.0;
    spec.totalTimeoutSeconds = 120.0;
    client.sendCompile(1, spec);
    client.sendCancel(1);

    const auto frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    const CompileReply reply = EncodingClient::decodeReply(*frame);
    EXPECT_EQ(reply.requestId, 1u);
    EXPECT_EQ(reply.status, api::ResultStatus::Cancelled);
    // Degradation ladder: a cancelled search still returns a valid
    // best-so-far encoding.
    const auto result = api::tryParseResult(reply.resultText);
    ASSERT_TRUE(result.has_value());
    EXPECT_GT(result->encoding.numQubits(), 0u);
}

TEST_F(NetDaemonTest, DeadlinePropagatesThroughTheWire)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    api::RequestSpec spec;
    spec.problem = "modes:8";
    spec.strategy = "sat";
    spec.stepTimeoutSeconds = 120.0;
    spec.totalTimeoutSeconds = 120.0;
    spec.deadlineSeconds = 0.1;
    const CompileReply reply = client.compile(1, spec);
    EXPECT_EQ(reply.status, api::ResultStatus::DeadlineExceeded);
    const auto result = api::tryParseResult(reply.resultText);
    ASSERT_TRUE(result.has_value());
    EXPECT_GT(result->encoding.numQubits(), 0u);
}

TEST_F(NetDaemonTest, ShardedStoreSurvivesRestartWithoutRecompute)
{
    const std::string store = (dir / "store").string();
    ServerOptions options;
    options.unixPath = socketPath();
    options.service.diskCachePath = store;
    options.service.diskCacheShards = 4;

    const std::vector<std::string> problems = {"modes:3", "modes:4"};
    {
        RunningDaemon daemon(options);
        EncodingClient client =
            EncodingClient::overUnix(socketPath());
        std::uint64_t id = 0;
        for (const std::string &problem : problems) {
            api::RequestSpec spec;
            spec.problem = problem;
            spec.strategy = "bravyi-kitaev";
            EXPECT_EQ(client.compile(++id, spec).status,
                      api::ResultStatus::Ok);
        }
        EXPECT_EQ(daemon.server.service().cacheStats().misses,
                  problems.size());
    }

    // Entries landed under two-hex-digit shard directories, and the
    // read-only audit sees them all as intact.
    std::size_t sharded_entries = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(store)) {
        if (!entry.is_regular_file())
            continue;
        EXPECT_EQ(entry.path().extension(), ".fhc");
        const std::string shard =
            entry.path().parent_path().filename().string();
        EXPECT_EQ(shard.size(), 2u) << entry.path();
        ++sharded_entries;
    }
    EXPECT_EQ(sharded_entries, problems.size());
    const api::StoreVerification audit =
        api::verifyEncodingStore(store);
    EXPECT_EQ(audit.entries, problems.size());
    EXPECT_EQ(audit.corrupted, 0u);
    EXPECT_GT(audit.bytes, 0u);

    // A restarted daemon on the same store serves everything from
    // disk: zero misses — the CI warm assertion, in miniature.
    {
        RunningDaemon daemon(options);
        EncodingClient client =
            EncodingClient::overUnix(socketPath());
        std::uint64_t id = 0;
        for (const std::string &problem : problems) {
            api::RequestSpec spec;
            spec.problem = problem;
            spec.strategy = "bravyi-kitaev";
            EXPECT_EQ(client.compile(++id, spec).status,
                      api::ResultStatus::Ok);
        }
        const api::CacheStats stats =
            daemon.server.service().cacheStats();
        EXPECT_EQ(stats.misses, 0u);
        EXPECT_EQ(stats.diskHits, problems.size());
    }
}

TEST_F(NetDaemonTest, MalformedRequestsDegradeToErrorResults)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    // Unparseable payload: RESULT status error, connection healthy.
    client.sendRaw(encodeFrame(
        {MessageType::Compile, 5, "not a request at all"}));
    auto frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, MessageType::Result);
    CompileReply reply = EncodingClient::decodeReply(*frame);
    EXPECT_EQ(reply.requestId, 5u);
    EXPECT_EQ(reply.status, api::ResultStatus::Error);
    EXPECT_TRUE(reply.resultText.empty());

    // Unknown strategy: same shape, with the name in the message.
    api::RequestSpec spec;
    spec.problem = "modes:3";
    spec.strategy = "no-such-strategy";
    reply = client.compile(6, spec);
    EXPECT_EQ(reply.status, api::ResultStatus::Error);
    EXPECT_NE(reply.message.find("no-such-strategy"),
              std::string::npos);

    // A near miss carries the did-you-mean suggestion.
    spec.strategy = "bravyi-kitaeb";
    reply = client.compile(7, spec);
    EXPECT_EQ(reply.status, api::ResultStatus::Error);
    EXPECT_NE(reply.message.find("did you mean 'bravyi-kitaev'"),
              std::string::npos)
        << reply.message;

    // Over-ceiling model: rejected as a request error too.
    spec.strategy = "bravyi-kitaev";
    spec.problem = "modes:200";
    reply = client.compile(8, spec);
    EXPECT_EQ(reply.status, api::ResultStatus::Error);

    // The connection survived all four: PING still answers.
    client.sendPing(9, "alive");
    frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MessageType::Pong);
    EXPECT_EQ(frame->payload, "alive");
}

TEST_F(NetDaemonTest, TopologyRequestsRoundTripAndRejectCleanly)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    // routed-cost without a topology can never compile: the wire
    // parser rejects the spec and the daemon answers a typed Error
    // RESULT while the connection stays healthy.
    api::RequestSpec bad;
    bad.problem = "modes:3";
    bad.strategy = "sat";
    bad.objective = api::Objective::RoutedCost;
    CompileReply reply = client.compile(1, bad);
    EXPECT_EQ(reply.status, api::ResultStatus::Error);
    EXPECT_TRUE(reply.resultText.empty());

    // With the topology line present the same request compiles, and
    // the daemon result is bit-identical to in-process compilation.
    api::RequestSpec good = bad;
    good.topology = "linear:6";
    good.strategy = "pick-routed";
    reply = client.compile(2, good);
    ASSERT_EQ(reply.status, api::ResultStatus::Ok)
        << reply.message;
    std::string error;
    const auto request = api::tryBuildRequest(good, &error);
    ASSERT_TRUE(request.has_value()) << error;
    api::CompilerService local;
    EXPECT_EQ(reply.resultText,
              api::serializeResult(local.compile(*request)));

    // The rejection did not poison the connection.
    client.sendPing(3, "alive");
    const auto frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MessageType::Pong);
    EXPECT_EQ(frame->payload, "alive");
}

TEST_F(NetDaemonTest, ProtocolViolationClosesWithErrorFrame)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    // Declared length below the 9-byte floor: the daemon answers
    // one ERROR frame and closes the connection.
    client.sendRaw(std::string("\x01\x00\x00\x00", 4));
    const auto frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MessageType::Error);
    EXPECT_FALSE(client.readMessage().has_value());

    // The daemon itself is unharmed: a fresh connection works.
    EncodingClient fresh = EncodingClient::overUnix(socketPath());
    fresh.sendPing(1, "ok");
    const auto pong = fresh.readMessage();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->type, MessageType::Pong);
}

TEST_F(NetDaemonTest, MetricsDocumentFlowsOverTheWire)
{
    ServerOptions options;
    options.unixPath = socketPath();
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    api::RequestSpec spec;
    spec.problem = "modes:3";
    spec.strategy = "jordan-wigner";
    ASSERT_EQ(client.compile(1, spec).status,
              api::ResultStatus::Ok);

    const std::string json = client.metrics();
    EXPECT_NE(json.find("service.ok"), std::string::npos);
    EXPECT_NE(json.find("service.latency_seconds"),
              std::string::npos);
}

TEST_F(NetDaemonTest, PipelinedRequestsCompleteOutOfOrder)
{
    ServerOptions options;
    options.unixPath = socketPath();
    // Two pool threads, or the slow request would head-of-line
    // block the fast ones and there'd be no reordering to observe.
    options.service.threads = 2;
    RunningDaemon daemon(options);
    EncodingClient client = EncodingClient::overUnix(socketPath());

    // A slow SAT search pipelined before two instant closed-form
    // requests: the fast ones must come back first (completion
    // order), and the slow one is cancelled to finish the test.
    api::RequestSpec slow;
    slow.problem = "modes:8";
    slow.strategy = "sat";
    slow.stepTimeoutSeconds = 120.0;
    slow.totalTimeoutSeconds = 120.0;
    api::RequestSpec fast;
    fast.problem = "modes:3";
    fast.strategy = "bravyi-kitaev";

    client.sendCompile(1, slow);
    client.sendCompile(2, fast);
    client.sendCompile(3, fast);

    std::vector<std::uint64_t> order;
    for (int i = 0; i < 2; ++i) {
        const auto frame = client.readMessage();
        ASSERT_TRUE(frame.has_value());
        const CompileReply reply =
            EncodingClient::decodeReply(*frame);
        EXPECT_EQ(reply.status, api::ResultStatus::Ok);
        order.push_back(reply.requestId);
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3}));

    client.sendCancel(1);
    const auto frame = client.readMessage();
    ASSERT_TRUE(frame.has_value());
    const CompileReply reply = EncodingClient::decodeReply(*frame);
    EXPECT_EQ(reply.requestId, 1u);
    EXPECT_EQ(reply.status, api::ResultStatus::Cancelled);
}

} // namespace
} // namespace fermihedral::net
