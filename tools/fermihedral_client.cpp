/**
 * @file
 * fermihedral_client: command-line client for fermihedrald.
 * Four modes, picked by flags:
 *  - single request (default): compile --model with --strategy and
 *    budgets, print the outcome line.
 *  - --batch <file>: pipeline every spec in the file (one
 *    warm-spec item per line, '#' comments) over one connection
 *    and print outcomes as the daemon completes them.
 *  - --stress <spec>: expand a warm-spec sweep, run it --rounds
 *    times sequentially (round 1 cold, later rounds warm), report
 *    client-side latency percentiles and the daemon's metrics.
 *  - --metrics / --ping: observability and liveness probes.
 *
 * Exit status: 0 when every request ended Ok (or the probe
 * succeeded), 1 otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "api/serialize.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/timer.h"
#include "net/client.h"

using namespace fermihedral;

namespace {

net::EncodingClient
connect(const std::string &unix_path, const std::string &tcp_host,
        std::uint16_t tcp_port)
{
    if (!unix_path.empty() && !tcp_host.empty())
        fatal("pass either --unix or --tcp-host, not both");
    if (!unix_path.empty())
        return net::EncodingClient::overUnix(unix_path);
    if (!tcp_host.empty())
        return net::EncodingClient::overTcp(tcp_host, tcp_port);
    fatal("no daemon address: pass --unix <path> or "
          "--tcp-host <addr> [--tcp-port <port>]");
}

/** Render one finished request as a stable, grep-friendly line. */
void
printReply(const net::CompileReply &reply, double seconds)
{
    std::printf("request=%llu status=%s",
                static_cast<unsigned long long>(reply.requestId),
                api::resultStatusName(reply.status));
    if (!reply.resultText.empty()) {
        if (const auto result =
                api::tryParseResult(reply.resultText)) {
            std::printf(" cost=%zu baseline=%zu optimal=%d "
                        "qubits=%zu",
                        result->cost, result->baselineCost,
                        result->provedOptimal ? 1 : 0,
                        result->encoding.numQubits());
        } else {
            std::printf(" result=unparseable");
        }
    }
    std::printf(" ms=%.2f", seconds * 1e3);
    if (!reply.message.empty())
        std::printf(" message=\"%s\"", reply.message.c_str());
    std::printf("\n");
}

std::vector<api::RequestSpec>
readBatchFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot read batch file '", path, "'");
    std::vector<api::RequestSpec> specs;
    std::string line;
    while (std::getline(file, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        // Skip blank (or comment-only) lines.
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        for (const api::RequestSpec &spec :
             api::expandWarmSpec(line))
            specs.push_back(spec);
    }
    if (specs.empty())
        fatal("batch file '", path, "' names no requests");
    return specs;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(p * double(sorted.size())));
    return sorted[index];
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("fermihedral_client: talk to a running "
                  "fermihedrald (wire protocol: "
                  "docs/PROTOCOL.md).");
    const auto *unix_path = flags.addString(
        "unix", "", "daemon unix-domain socket path");
    const auto *tcp_host = flags.addString(
        "tcp-host", "", "daemon TCP address (numeric IPv4)");
    const auto *tcp_port =
        flags.addInt("tcp-port", 7411, "daemon TCP port");
    const auto *model = flags.addString(
        "model", "modes:3",
        "model spec to compile (modes:N, h2, hubbard:LxW, "
        "hubbard1d:S, syk:N[:seed])");
    const auto *strategy = flags.addString(
        "strategy", "sat", "encoding strategy name");
    const auto *step_timeout = flags.addDouble(
        "step-timeout", 15.0, "per-SAT-call budget (s)");
    const auto *total_timeout = flags.addDouble(
        "total-timeout", 45.0, "whole-search budget (s)");
    const auto *deadline = flags.addDouble(
        "deadline", 0.0,
        "end-to-end deadline propagated to the daemon (s, "
        "0 = none)");
    const auto *batch = flags.addString(
        "batch", "",
        "pipeline every spec in this file over one connection");
    const auto *stress = flags.addString(
        "stress", "",
        "expand this warm-spec sweep and run it --rounds times");
    const auto *rounds = flags.addInt(
        "rounds", 2,
        "stress rounds (round 1 is cold, later rounds warm)");
    const auto *metrics_only = flags.addBool(
        "metrics", false,
        "print the daemon's metrics JSON document and exit");
    const auto *metrics_out = flags.addString(
        "metrics-out", "",
        "also write the daemon's metrics JSON to this file");
    const auto *ping = flags.addBool(
        "ping", false, "liveness probe: PING, expect PONG");
    if (!flags.parse(argc, argv))
        return 0;

    net::EncodingClient client =
        connect(*unix_path, *tcp_host,
                static_cast<std::uint16_t>(*tcp_port));

    const auto dumpMetrics = [&](bool to_stdout) {
        const std::string json = client.metrics();
        if (to_stdout)
            std::printf("%s\n", json.c_str());
        if (!metrics_out->empty()) {
            std::ofstream out(*metrics_out,
                              std::ios::binary | std::ios::trunc);
            if (!out)
                fatal("cannot write '", *metrics_out, "'");
            out << json << '\n';
            inform("wrote daemon metrics to ", *metrics_out);
        }
    };

    if (*ping) {
        client.sendPing(1, "fermihedral");
        const auto pong = client.readMessage();
        if (!pong || pong->type != net::MessageType::Pong ||
            pong->payload != "fermihedral")
            fatal("ping failed: no matching PONG");
        std::printf("pong from '%s' (protocol v%u)\n",
                    client.banner().c_str(), client.version());
        return 0;
    }
    if (*metrics_only) {
        dumpMetrics(true);
        return 0;
    }

    bool all_ok = true;

    if (!stress->empty()) {
        // Stress mode: the same sweep every round, so round 1
        // populates the store and later rounds must be pure cache
        // traffic (CI asserts misses do not move on warm runs).
        auto specs = api::expandWarmSpec(*stress);
        for (api::RequestSpec &spec : specs) {
            spec.stepTimeoutSeconds = *step_timeout;
            spec.totalTimeoutSeconds = *total_timeout;
            spec.deadlineSeconds = *deadline;
        }
        std::vector<double> latencies;
        std::uint64_t id = 0;
        std::size_t ok = 0, total = 0;
        for (std::int64_t round = 1; round <= *rounds; ++round) {
            Timer round_timer;
            for (const api::RequestSpec &spec : specs) {
                Timer timer;
                const net::CompileReply reply =
                    client.compile(++id, spec);
                latencies.push_back(timer.seconds());
                ++total;
                if (reply.status == api::ResultStatus::Ok)
                    ++ok;
                else
                    all_ok = false;
            }
            std::printf("round=%lld requests=%zu seconds=%.3f\n",
                        static_cast<long long>(round),
                        specs.size(), round_timer.seconds());
        }
        std::sort(latencies.begin(), latencies.end());
        std::printf(
            "stress requests=%zu ok=%zu p50_ms=%.2f p90_ms=%.2f "
            "p99_ms=%.2f max_ms=%.2f\n",
            total, ok, percentile(latencies, 0.50) * 1e3,
            percentile(latencies, 0.90) * 1e3,
            percentile(latencies, 0.99) * 1e3,
            latencies.empty() ? 0.0 : latencies.back() * 1e3);
        // The daemon-side view (service.latency_seconds
        // percentiles, cache counters) comes from metricsJson().
        dumpMetrics(true);
        return all_ok ? 0 : 1;
    }

    if (!batch->empty()) {
        const auto specs = readBatchFile(*batch);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            api::RequestSpec spec = specs[i];
            spec.stepTimeoutSeconds = *step_timeout;
            spec.totalTimeoutSeconds = *total_timeout;
            spec.deadlineSeconds = *deadline;
            client.sendCompile(i + 1, spec);
        }
        Timer timer;
        // Responses arrive in completion order — print them as
        // they land; the request= field ties them back.
        for (std::size_t done = 0; done < specs.size(); ++done) {
            const auto frame = client.readMessage();
            if (!frame)
                fatal("daemon closed with ",
                      specs.size() - done, " request(s) open");
            if (frame->type == net::MessageType::Error)
                fatal("daemon protocol error: ", frame->payload);
            const net::CompileReply reply =
                net::EncodingClient::decodeReply(*frame);
            if (reply.status != api::ResultStatus::Ok)
                all_ok = false;
            printReply(reply, timer.seconds());
        }
        if (!metrics_out->empty())
            dumpMetrics(false);
        return all_ok ? 0 : 1;
    }

    api::RequestSpec spec;
    spec.problem = *model;
    spec.strategy = *strategy;
    spec.stepTimeoutSeconds = *step_timeout;
    spec.totalTimeoutSeconds = *total_timeout;
    spec.deadlineSeconds = *deadline;
    Timer timer;
    const net::CompileReply reply = client.compile(1, spec);
    printReply(reply, timer.seconds());
    if (!metrics_out->empty())
        dumpMetrics(false);
    return reply.status == api::ResultStatus::Ok ? 0 : 1;
}
