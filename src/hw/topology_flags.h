/**
 * @file
 * The shared hardware-topology flag: benches and examples register
 * --topology with one TopologyFlags::add(flags) call (same overlay
 * pattern as telemetry::TelemetryFlags and bench::EngineFlags).
 * resolve() turns the spec into a hw::Topology, with the
 * registry-style did-you-mean diagnostic on unknown family names.
 * Any graph is expressible as an "edges:N:a-b,..." spec.
 *
 * Key invariants:
 *  - Without --topology, resolve() returns nullopt and the binary
 *    behaves exactly as before the flag existed (the implicit
 *    all-to-all assumption).
 *  - An unparseable spec is a fatal diagnostic at flag-resolution
 *    time, never a silently ignored topology.
 */

#ifndef FERMIHEDRAL_HW_TOPOLOGY_FLAGS_H
#define FERMIHEDRAL_HW_TOPOLOGY_FLAGS_H

#include <optional>
#include <string>

#include "common/flags.h"
#include "hw/topology.h"

namespace fermihedral::hw {

/** CLI overlay wiring a hardware topology into a binary. */
struct TopologyFlags
{
    const std::string *spec = nullptr;

    static TopologyFlags
    add(FlagSet &flags)
    {
        TopologyFlags topology;
        topology.spec = flags.addString(
            "topology", "",
            "hardware connectivity as NAME[:ARGS] (linear:N, "
            "grid:WxH, heavy-hex:CELLS, all-to-all:N, "
            "edges:N:a-b,...); empty = all-to-all/unconstrained");
        storage() = topology;
        return topology;
    }

    /** The topology the flag names; nullopt when not given. */
    std::optional<Topology>
    resolve() const
    {
        if (spec && !spec->empty())
            return Topology::parseSpec(*spec);
        return std::nullopt;
    }

    /** The overlay armed by add(), if any (one per binary). */
    static const TopologyFlags *
    active()
    {
        return storage().spec ? &storage() : nullptr;
    }

  private:
    static TopologyFlags &
    storage()
    {
        static TopologyFlags registered;
        return registered;
    }
};

} // namespace fermihedral::hw

#endif // FERMIHEDRAL_HW_TOPOLOGY_FLAGS_H
