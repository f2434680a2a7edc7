/**
 * @file
 * Wall-clock stopwatch and deadline instants, used by every
 * wall-clock budget (SAT calls, the descent, request deadlines), the
 * time-to-solution benchmarks (Figure 11) and the telemetry span
 * recorder (common/telemetry.h).
 *
 * Key invariants:
 *  - Based on std::chrono::steady_clock — the project's single
 *    time source. Elapsed readings and nowNs() ticks are monotone
 *    and immune to system clock adjustments; nothing in the tree
 *    times anything off system_clock.
 *  - seconds()/elapsedNs() are const and may be polled repeatedly;
 *    only reset() restarts the epoch.
 *  - nowNs() readings from different threads share one epoch (the
 *    steady clock's), so cross-thread span timelines are directly
 *    comparable.
 *  - A deadline is one absolute instant on that clock, in
 *    nowSeconds() units. kNoDeadline (+infinity) never arrives, so
 *    limits combine with std::min and expire on one comparison
 *    (nowSeconds() >= deadline); no layer keeps an "unlimited"
 *    sentinel of its own.
 */

#ifndef FERMIHEDRAL_COMMON_TIMER_H
#define FERMIHEDRAL_COMMON_TIMER_H

#include <chrono>
#include <cstdint>
#include <limits>

namespace fermihedral {

/** Simple steady-clock stopwatch. Starts running on construction. */
class Timer
{
  public:
    Timer() : start(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start = Clock::now(); }

    /** Elapsed wall-clock time in seconds. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    }

    /** Elapsed wall-clock time in milliseconds. */
    double milliseconds() const { return seconds() * 1e3; }

    /** Elapsed wall-clock time in integer nanoseconds. */
    std::uint64_t
    elapsedNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
    }

    /**
     * Monotonic nanoseconds since the steady clock's epoch: the
     * raw tick the span recorder timestamps events with.
     */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
    }

    /** nowNs() in seconds: the scale deadlines are instants on. */
    static double
    nowSeconds()
    {
        return static_cast<double>(nowNs()) * 1e-9;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

/** The deadline that never arrives (see the file comment). */
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * The instant `seconds` from now. Zero or less is already due, and
 * a huge budget such as 1e308 stays a finite, unreachable instant.
 */
inline double
deadlineIn(double seconds)
{
    return Timer::nowSeconds() + seconds;
}

} // namespace fermihedral

#endif // FERMIHEDRAL_COMMON_TIMER_H
