/**
 * @file
 * fermihedrald: the encoding-service daemon. Serves the
 * CompilerService over the docs/PROTOCOL.md frame protocol on a
 * unix-domain socket and/or TCP, backed by the persistent sharded
 * encoding store, with --warm precompiling an encoding library
 * before the first client connects and --verify-store running an
 * offline CRC audit. docs/OPERATIONS.md is the runbook.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "common/flags.h"
#include "common/logging.h"
#include "common/telemetry_flags.h"
#include "net/server.h"

using namespace fermihedral;

namespace {

net::EncodingServer *activeServer = nullptr;

void
handleSignal(int)
{
    // stop() is an atomic store + a pipe write: signal-safe.
    if (activeServer)
        activeServer->stop();
}

/** "0600"-style octal mode string -> mode bits. */
unsigned
parseMode(const std::string &text)
{
    if (text.empty() || text.size() > 4)
        fatal("malformed socket mode '", text,
              "' (expected octal such as 0600 or 660)");
    unsigned mode = 0;
    for (const char c : text) {
        if (c < '0' || c > '7')
            fatal("malformed socket mode '", text,
                  "' (expected octal such as 0600 or 660)");
        mode = mode * 8 + static_cast<unsigned>(c - '0');
    }
    return mode;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("fermihedrald: the encoding-service daemon "
                  "(wire protocol: docs/PROTOCOL.md, runbook: "
                  "docs/OPERATIONS.md).");
    const auto *unix_path = flags.addString(
        "unix", "fermihedrald.sock",
        "unix-domain socket path (empty disables the listener)");
    const auto *unix_mode = flags.addString(
        "unix-mode", "0600",
        "octal file mode applied to the unix socket");
    const auto *tcp_host = flags.addString(
        "tcp-host", "",
        "numeric IPv4 address for the TCP listener (empty "
        "disables TCP)");
    const auto *tcp_port = flags.addInt(
        "tcp-port", 7411, "TCP port (0 picks an ephemeral port)");
    const auto *store = flags.addString(
        "store", "",
        "directory of the persistent encoding store (empty runs "
        "without persistence)");
    const auto *store_shards = flags.addInt(
        "store-shards", 16,
        "hashed subdirectories fanning out the store (0 = flat "
        "legacy layout)");
    const auto *threads = flags.addInt(
        "threads", 1,
        "service worker threads (0 = hardware concurrency)");
    const auto *cache_capacity = flags.addInt(
        "cache-capacity", 256,
        "in-memory LRU capacity in entries (0 disables it)");
    const auto *max_queue_depth = flags.addInt(
        "max-queue-depth", 64,
        "admission control: queued requests before shedding "
        "(0 = unbounded)");
    const auto *warm = flags.addString(
        "warm", "",
        "precompile an encoding library before serving, e.g. "
        "'hubbard:1x2..2x2;syk:4..6@sat' (see docs/OPERATIONS.md)");
    const auto *warm_step_timeout = flags.addDouble(
        "warm-step-timeout", 15.0,
        "per-SAT-call budget for warm compiles (s)");
    const auto *warm_total_timeout = flags.addDouble(
        "warm-total-timeout", 45.0,
        "whole-search budget for each warm compile (s)");
    const auto *warm_only = flags.addBool(
        "warm-only", false,
        "exit after the warm sweep instead of serving");
    const auto *verify_store = flags.addBool(
        "verify-store", false,
        "CRC-audit every entry under --store, report, and exit "
        "(exit 1 when corrupted entries exist)");
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    if (*verify_store) {
        if (store->empty())
            fatal("--verify-store needs --store");
        const api::StoreVerification report =
            api::verifyEncodingStore(*store);
        std::printf("store=%s entries=%zu corrupted=%zu "
                    "bytes=%zu\n",
                    store->c_str(), report.entries,
                    report.corrupted, report.bytes);
        return report.corrupted == 0 ? 0 : 1;
    }

    net::ServerOptions options;
    options.unixPath = *unix_path;
    options.unixMode = parseMode(*unix_mode);
    options.tcpHost = *tcp_host;
    options.tcpPort = static_cast<std::uint16_t>(*tcp_port);
    options.service.threads = static_cast<std::size_t>(*threads);
    options.service.cacheCapacity =
        static_cast<std::size_t>(*cache_capacity);
    options.service.diskCachePath = *store;
    options.service.diskCacheShards =
        static_cast<std::size_t>(*store_shards);
    options.service.maxQueueDepth =
        static_cast<std::size_t>(*max_queue_depth);
    if (*warm_only && warm->empty())
        fatal("--warm-only needs --warm");

    net::EncodingServer server(options);
    activeServer = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    if (!warm->empty()) {
        auto specs = api::expandWarmSpec(*warm);
        for (api::RequestSpec &spec : specs) {
            spec.stepTimeoutSeconds = *warm_step_timeout;
            spec.totalTimeoutSeconds = *warm_total_timeout;
        }
        inform("warming ", specs.size(), " spec(s)...");
        const net::WarmReport report = server.warm(specs);
        inform("warm done: ", report.ok, "/", report.requests,
               " ok (", report.fromCache, " from cache) in ",
               report.seconds, " s");
    }

    if (!*warm_only) {
        if (!options.unixPath.empty())
            inform("listening on unix socket ", options.unixPath,
                   " (mode ", *unix_mode, ")");
        if (!options.tcpHost.empty())
            inform("listening on tcp ", options.tcpHost, ":",
                   server.boundTcpPort());
        server.run();
        inform("shutting down");
    }

    activeServer = nullptr;
    std::printf("%s\n",
                server.service().cacheStatsJson().c_str());
    tflags.report();
    return 0;
}
