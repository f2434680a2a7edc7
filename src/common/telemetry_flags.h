/**
 * @file
 * The shared observability flags: every bench/example binary
 * registers --metrics-json and --trace with one
 * TelemetryFlags::add(flags) call. (--progress is a descent
 * observer, registered only by the benches that run descents:
 * bench::addProgressFlag.) After FlagSet::parse, arm() switches the
 * global TraceRecorder on when --trace was given; report() at the
 * end of main serializes the metrics registry and the Chrome trace
 * to the requested files.
 *
 * Key invariants:
 *  - With neither flag given, arm() and report() are no-ops and
 *    the binary runs with tracing disabled — the telemetry layer's
 *    zero-cost-when-off guarantee applies end to end.
 *  - report() never throws and never aborts the binary: IO
 *    failures warn and are reported through the return value so a
 *    bench run's results still print.
 */

#ifndef FERMIHEDRAL_COMMON_TELEMETRY_FLAGS_H
#define FERMIHEDRAL_COMMON_TELEMETRY_FLAGS_H

#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace fermihedral::telemetry {

/** CLI overlay wiring the telemetry layer into a binary. */
struct TelemetryFlags
{
    const std::string *metricsJson = nullptr;
    const std::string *trace = nullptr;

    static TelemetryFlags
    add(FlagSet &flags)
    {
        TelemetryFlags telemetry;
        telemetry.metricsJson = flags.addString(
            "metrics-json", "",
            "write the metrics registry (counters/gauges/histogram "
            "percentiles) to this JSON file at exit");
        telemetry.trace = flags.addString(
            "trace", "",
            "record trace spans and write Chrome trace_event JSON "
            "(Perfetto / chrome://tracing) to this file at exit");
        return telemetry;
    }

    /** Call once after FlagSet::parse: enables span recording. */
    void
    arm() const
    {
        if (trace && !trace->empty())
            TraceRecorder::global().setEnabled(true);
    }

    /**
     * Write the requested artifacts. Call at the end of main, once
     * the pool/service threads are quiescent. Returns false if any
     * requested write failed (a warning names the file).
     */
    bool
    report() const
    {
        bool ok = true;
        if (metricsJson && !metricsJson->empty()) {
            if (MetricsRegistry::global().writeMetricsJson(
                    *metricsJson)) {
                inform("wrote metrics to ", *metricsJson);
            } else {
                ok = false;
            }
        }
        if (trace && !trace->empty()) {
            if (TraceRecorder::global().writeChromeTrace(*trace)) {
                inform("wrote ",
                       TraceRecorder::global().eventCount(),
                       " trace events to ", *trace);
            } else {
                ok = false;
            }
        }
        return ok;
    }
};

} // namespace fermihedral::telemetry

#endif // FERMIHEDRAL_COMMON_TELEMETRY_FLAGS_H
