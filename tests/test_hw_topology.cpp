/**
 * @file
 * hw/topology.h unit and property tests: the named builders produce
 * the documented shapes, the BFS distance matrix behaves like a
 * metric on random graphs, the "edges:" spec round-trips
 * bit-exactly, and malformed / typo'd specs are rejected with a
 * diagnostic instead of crashing.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "hw/topology.h"

namespace fermihedral::hw {
namespace {

TEST(TopologyBuilders, LinearPathShape)
{
    const auto t = Topology::linear(5);
    EXPECT_EQ(t.numQubits(), 5u);
    EXPECT_EQ(t.edges().size(), 4u);
    EXPECT_TRUE(t.connected());
    EXPECT_EQ(t.distance(0, 4), 4u);
    EXPECT_EQ(t.diameter(), 4u);
    EXPECT_EQ(t.spec(), "linear:5");
    for (std::uint32_t i = 0; i + 1 < 5; ++i)
        EXPECT_TRUE(t.hasEdge(i, i + 1));
    EXPECT_FALSE(t.hasEdge(0, 2));
}

TEST(TopologyBuilders, GridShape)
{
    // 2x4: width 2, height 4, qubit index = y * width + x.
    const auto t = Topology::grid(2, 4);
    EXPECT_EQ(t.numQubits(), 8u);
    // (width-1)*height horizontal + width*(height-1) vertical.
    EXPECT_EQ(t.edges().size(), 4u + 6u);
    EXPECT_TRUE(t.connected());
    // Opposite corners (0,0) and (1,3): Manhattan distance 4.
    EXPECT_EQ(t.distance(0, 7), 4u);
    EXPECT_EQ(t.diameter(), 4u);
    EXPECT_TRUE(t.hasEdge(0, 1));  // (0,0)-(1,0)
    EXPECT_TRUE(t.hasEdge(0, 2));  // (0,0)-(0,1)
    EXPECT_FALSE(t.hasEdge(1, 2)); // diagonal
}

TEST(TopologyBuilders, AllToAllIsDiameterOne)
{
    const auto t = Topology::allToAll(5);
    EXPECT_EQ(t.numQubits(), 5u);
    EXPECT_EQ(t.edges().size(), 10u);
    EXPECT_EQ(t.diameter(), 1u);
    for (std::uint32_t a = 0; a < 5; ++a)
        for (std::uint32_t b = 0; b < 5; ++b)
            EXPECT_EQ(t.distance(a, b), a == b ? 0u : 1u);
}

TEST(TopologyBuilders, HeavyHexOneCellIsTheTwelveCycle)
{
    const auto t = Topology::heavyHex(1);
    EXPECT_EQ(t.numQubits(), 12u);
    EXPECT_EQ(t.edges().size(), 12u);
    EXPECT_TRUE(t.connected());
    // One subdivided hexagon is a plain 12-cycle: every qubit has
    // degree 2 and the diameter is half the cycle length.
    for (std::uint32_t q = 0; q < 12; ++q)
        EXPECT_EQ(t.neighbors(q).size(), 2u) << "qubit " << q;
    EXPECT_EQ(t.diameter(), 6u);
}

TEST(TopologyBuilders, HeavyHexGrowsNineQubitsPerCell)
{
    const auto t2 = Topology::heavyHex(2);
    EXPECT_EQ(t2.numQubits(), 21u);
    // Two 8-edge rails plus 2 edges per subdivided vertical.
    EXPECT_EQ(t2.edges().size(), 16u + 6u);
    EXPECT_TRUE(t2.connected());
    // Bridges subdivide the verticals: top(0)=0 to bottom(0)=9 is
    // 2 hops through bridge qubit 18.
    EXPECT_EQ(t2.distance(0, 9), 2u);
    EXPECT_EQ(Topology::heavyHex(3).numQubits(), 30u);
}

/** Random connected topology: spanning tree plus extra edges. */
Topology
randomConnected(std::size_t n, Rng &rng)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t q = 1; q < n; ++q)
        edges.push_back(
            {static_cast<std::uint32_t>(rng.nextBelow(q)), q});
    const std::size_t extra = rng.nextBelow(n);
    for (std::size_t i = 0; i < extra; ++i) {
        const auto a =
            static_cast<std::uint32_t>(rng.nextBelow(n));
        const auto b =
            static_cast<std::uint32_t>(rng.nextBelow(n));
        if (a != b)
            edges.push_back({std::min(a, b), std::max(a, b)});
    }
    return Topology::fromEdges(n, std::move(edges));
}

TEST(TopologyDistance, BehavesLikeAMetricOnRandomGraphs)
{
    Rng rng(20260807);
    for (int iteration = 0; iteration < 40; ++iteration) {
        const std::size_t n = 2 + rng.nextBelow(10);
        const auto t = randomConnected(n, rng);
        ASSERT_TRUE(t.connected());
        for (std::uint32_t a = 0; a < n; ++a) {
            EXPECT_EQ(t.distance(a, a), 0u);
            for (std::uint32_t b = 0; b < n; ++b) {
                const auto d = t.distance(a, b);
                EXPECT_EQ(d, t.distance(b, a));
                EXPECT_EQ(d == 1, t.hasEdge(a, b));
                EXPECT_LE(d, t.diameter());
                for (std::uint32_t c = 0; c < n; ++c)
                    EXPECT_LE(d, t.distance(a, c) +
                                     t.distance(c, b));
            }
        }
    }
}

TEST(TopologyDistance, DisconnectedPairsReportUnreachable)
{
    // Two components: 0-1 and 2-3.
    const auto t = Topology::fromEdges(4, {{0, 1}, {2, 3}});
    EXPECT_FALSE(t.connected());
    EXPECT_EQ(t.distance(0, 2), Topology::kUnreachable);
    EXPECT_EQ(t.distance(1, 3), Topology::kUnreachable);
    EXPECT_EQ(t.distance(0, 1), 1u);
}

TEST(TopologySerialize, RoundTripsBitExactly)
{
    Rng rng(42);
    for (int iteration = 0; iteration < 30; ++iteration) {
        const std::size_t n = 1 + rng.nextBelow(12);
        const auto t = n == 1 ? Topology::linear(1)
                              : randomConnected(n, rng);
        const std::string text = t.edgesSpec();
        const auto parsed = Topology::tryParseSpec(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(*parsed, t);
        // Canonical: a second trip is byte-identical.
        EXPECT_EQ(parsed->edgesSpec(), text);
    }
}

TEST(TopologySpec, EverySpecRoundTrips)
{
    for (const char *spec :
         {"linear:8", "grid:2x4", "heavy-hex:2", "all-to-all:6",
          "edges:4:0-1,1-2,2-3,0-3"}) {
        const auto t = Topology::parseSpec(spec);
        const auto again = Topology::tryParseSpec(t.spec());
        ASSERT_TRUE(again.has_value()) << spec;
        EXPECT_EQ(*again, t) << spec;
        // The structural form names the same graph too.
        const auto structural =
            Topology::tryParseSpec(t.edgesSpec());
        ASSERT_TRUE(structural.has_value()) << spec;
        EXPECT_EQ(*structural, t) << spec;
    }
}

TEST(TopologySpec, MalformedSpecsReturnDiagnostics)
{
    for (const char *spec :
         {"", "grid", "grid:2", "grid:0x4", "grid:2x", "linear:",
          "linear:0", "heavy-hex:0", "edges:3", "edges:3:0-3",
          "edges:3:0-0", "edges:3:01", "linear:99999999999"}) {
        std::string error;
        EXPECT_FALSE(
            Topology::tryParseSpec(spec, &error).has_value())
            << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

TEST(TopologySpec, UnknownFamilySuggestsTheNearestName)
{
    std::string error;
    EXPECT_FALSE(
        Topology::tryParseSpec("gird:2x4", &error).has_value());
    EXPECT_NE(error.find("did you mean 'grid'"), std::string::npos)
        << error;
    EXPECT_THROW(Topology::parseSpec("gird:2x4"), FatalError);
}

} // namespace
} // namespace fermihedral::hw
