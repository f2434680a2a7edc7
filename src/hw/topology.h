/**
 * @file
 * Hardware qubit-connectivity topologies: the value type the
 * hardware-aware layer (hw/router.h, hw/routed_cost.h and the
 * api's routed-cost objective) shares. A Topology is an undirected
 * simple graph over physical qubits with an all-pairs shortest-path
 * distance matrix precomputed at construction, so routing and cost
 * estimation never re-run BFS in their inner loops.
 *
 * Construction surfaces:
 *  - named builders: linear(n), grid(w, h), heavyHex(cells),
 *    allToAll(n) and the general fromEdges();
 *  - one-line specs ("grid:2x4", "heavy-hex:2", "linear:8",
 *    "all-to-all:6", "edges:5:0-1,1-2,...") — the one text form,
 *    used on CLI flags, the daemon wire format and cache keys; the
 *    "edges:" family names any graph.
 *
 * Key invariants:
 *  - edges() is canonical: every pair (a, b) has a < b, the list is
 *    sorted and duplicate-free, no self loops, and every endpoint
 *    is < numQubits(). Two topologies with equal qubit counts and
 *    equal edges() compare equal regardless of how they were built.
 *  - distance(a, b) is the exact BFS hop count (kUnreachable when
 *    disconnected), symmetric, zero exactly on the diagonal, and 1
 *    exactly on edges.
 *  - tryParseSpec() rejects malformed input with a diagnostic
 *    instead of crashing — it guards peer bytes and operator
 *    typos; the builders fatal on programmer error.
 *  - spec() round-trips: tryParseSpec(t.spec()) reproduces an equal
 *    topology for every constructible t, which is what lets a spec
 *    string stand in for the full graph on the wire and in cache
 *    keys.
 */

#ifndef FERMIHEDRAL_HW_TOPOLOGY_H
#define FERMIHEDRAL_HW_TOPOLOGY_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fermihedral::hw {

/** An undirected physical-qubit connectivity graph. */
class Topology
{
  public:
    /** Distance value reported between disconnected qubits. */
    static constexpr std::uint32_t kUnreachable = UINT32_MAX;

    /** Qubit-count ceiling (the distance matrix is dense). */
    static constexpr std::size_t kMaxQubits = 1024;

    /** Empty topology (0 qubits); usable only as a placeholder. */
    Topology() = default;

    // --- named builders (fatal on invalid parameters) -----------
    /** Path 0-1-...-(n-1). */
    static Topology linear(std::size_t n);

    /** width x height lattice, qubit index = y * width + x. */
    static Topology grid(std::size_t width, std::size_t height);

    /**
     * IBM-style heavy-hex chain: `cells` hexagons in a row sharing
     * vertical edges, then every edge subdivided by a bridge qubit.
     * heavyHex(1) is the 12-qubit heavy hexagon; each further cell
     * adds 9 qubits. Layout: top rail (indices 0..4c), bottom rail
     * (4c+1..8c+1), then the c+1 vertical bridge qubits.
     */
    static Topology heavyHex(std::size_t cells);

    /** Complete graph on n qubits (the all-to-all baseline). */
    static Topology allToAll(std::size_t n);

    /**
     * General constructor from an edge list. Fatal on out-of-range
     * endpoints or self loops; duplicate edges collapse. `name`
     * becomes spec() when non-empty.
     */
    static Topology fromEdges(
        std::size_t qubits,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
        std::string name = "");

    // --- one-line specs -----------------------------------------
    /**
     * Parse "family:args" ("linear:8", "grid:2x4", "heavy-hex:2",
     * "all-to-all:6", "edges:<qubits>:a-b,c-d,..."). On failure
     * returns nullopt and, when `error` is non-null, a one-line
     * diagnostic — unknown families get a did-you-mean suggestion.
     */
    static std::optional<Topology> tryParseSpec(
        std::string_view spec, std::string *error = nullptr);

    /** tryParseSpec with failures as fatal diagnostics. */
    static Topology parseSpec(std::string_view spec);

    /**
     * The one-line spec this topology round-trips through: the
     * builder spec when built by name, the "edges:..." form
     * otherwise.
     */
    const std::string &spec() const { return specName; }

    /** The structural "edges:<qubits>:a-b,..." form (name-free). */
    std::string edgesSpec() const;

    // --- graph queries ------------------------------------------
    std::size_t numQubits() const { return n; }

    const std::vector<std::pair<std::uint32_t, std::uint32_t>> &
    edges() const
    {
        return edgeList;
    }

    const std::vector<std::uint32_t> &
    neighbors(std::uint32_t qubit) const;

    bool hasEdge(std::uint32_t a, std::uint32_t b) const;

    /** BFS hop distance; kUnreachable when disconnected. */
    std::uint32_t distance(std::uint32_t a, std::uint32_t b) const;

    /** Every qubit reachable from every other. */
    bool connected() const;

    /** Largest distance between any connected pair. */
    std::uint32_t diameter() const;

    bool operator==(const Topology &other) const
    {
        return n == other.n && edgeList == other.edgeList;
    }

  private:
    std::size_t n = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edgeList;
    std::vector<std::vector<std::uint32_t>> adjacency;
    /** Row-major n x n matrix of BFS distances. */
    std::vector<std::uint32_t> dist;
    std::string specName;

    void computeDistances();
};

} // namespace fermihedral::hw

#endif // FERMIHEDRAL_HW_TOPOLOGY_H
