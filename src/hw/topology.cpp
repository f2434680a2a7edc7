#include "hw/topology.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/logging.h"
#include "common/suggest.h"

namespace fermihedral::hw {

namespace {

/** Strict decimal parse; nullopt on anything else. */
std::optional<std::size_t>
parseCount(std::string_view text)
{
    if (text.empty() || text.size() > 9)
        return std::nullopt;
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

void
canonicalize(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &edges)
{
    for (auto &[a, b] : edges)
        if (a > b)
            std::swap(a, b);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()),
                edges.end());
}

bool
specFail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

} // namespace

void
Topology::computeDistances()
{
    adjacency.assign(n, {});
    for (const auto &[a, b] : edgeList) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
    }
    for (auto &list : adjacency)
        std::sort(list.begin(), list.end());

    dist.assign(n * n, kUnreachable);
    std::deque<std::uint32_t> frontier;
    for (std::uint32_t source = 0; source < n; ++source) {
        std::uint32_t *row = dist.data() + source * n;
        row[source] = 0;
        frontier.clear();
        frontier.push_back(source);
        while (!frontier.empty()) {
            const std::uint32_t at = frontier.front();
            frontier.pop_front();
            for (const std::uint32_t next : adjacency[at]) {
                if (row[next] != kUnreachable)
                    continue;
                row[next] = row[at] + 1;
                frontier.push_back(next);
            }
        }
    }
}

Topology
Topology::fromEdges(
    std::size_t qubits,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
    std::string name)
{
    require(qubits >= 1, "Topology needs at least one qubit");
    require(qubits <= kMaxQubits, "Topology exceeds the ",
            kMaxQubits, "-qubit ceiling");
    for (const auto &[a, b] : edges) {
        require(a < qubits && b < qubits, "Topology edge (", a,
                ", ", b, ") out of range for ", qubits, " qubits");
        require(a != b, "Topology self loop on qubit ", a);
    }
    canonicalize(edges);
    Topology topology;
    topology.n = qubits;
    topology.edgeList = std::move(edges);
    topology.computeDistances();
    topology.specName =
        name.empty() ? topology.edgesSpec() : std::move(name);
    return topology;
}

Topology
Topology::linear(std::size_t n)
{
    require(n >= 1, "linear topology needs at least one qubit");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t i = 0; i + 1 < n; ++i)
        edges.push_back({i, i + 1});
    return fromEdges(n, std::move(edges),
                     "linear:" + std::to_string(n));
}

Topology
Topology::grid(std::size_t width, std::size_t height)
{
    require(width >= 1 && height >= 1,
            "grid topology needs positive dimensions");
    const auto at = [width](std::size_t x, std::size_t y) {
        return static_cast<std::uint32_t>(y * width + x);
    };
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            if (x + 1 < width)
                edges.push_back({at(x, y), at(x + 1, y)});
            if (y + 1 < height)
                edges.push_back({at(x, y), at(x, y + 1)});
        }
    }
    return fromEdges(width * height, std::move(edges),
                     "grid:" + std::to_string(width) + "x" +
                         std::to_string(height));
}

Topology
Topology::heavyHex(std::size_t cells)
{
    require(cells >= 1, "heavy-hex topology needs >= 1 cell");
    // A chain of `cells` hexagons is two parallel rails with a
    // vertical edge at every other rail position; subdividing
    // every edge interleaves bridge qubits into the rails (rail
    // length 4c+1) and puts one bridge on each vertical (c+1 of
    // them): 9c+3 qubits total, heavyHex(1) = the 12-qubit heavy
    // hexagon.
    const std::size_t rail = 4 * cells + 1;
    const auto top = [](std::size_t i) {
        return static_cast<std::uint32_t>(i);
    };
    const auto bottom = [rail](std::size_t i) {
        return static_cast<std::uint32_t>(rail + i);
    };
    const auto bridge = [rail](std::size_t j) {
        return static_cast<std::uint32_t>(2 * rail + j);
    };
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::size_t i = 0; i + 1 < rail; ++i) {
        edges.push_back({top(i), top(i + 1)});
        edges.push_back({bottom(i), bottom(i + 1)});
    }
    for (std::size_t j = 0; j <= cells; ++j) {
        edges.push_back({top(4 * j), bridge(j)});
        edges.push_back({bridge(j), bottom(4 * j)});
    }
    return fromEdges(2 * rail + cells + 1, std::move(edges),
                     "heavy-hex:" + std::to_string(cells));
}

Topology
Topology::allToAll(std::size_t n)
{
    require(n >= 1, "all-to-all topology needs at least one qubit");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t a = 0; a < n; ++a)
        for (std::uint32_t b = a + 1; b < n; ++b)
            edges.push_back({a, b});
    return fromEdges(n, std::move(edges),
                     "all-to-all:" + std::to_string(n));
}

const std::vector<std::uint32_t> &
Topology::neighbors(std::uint32_t qubit) const
{
    require(qubit < n, "neighbors(", qubit, ") out of range");
    return adjacency[qubit];
}

bool
Topology::hasEdge(std::uint32_t a, std::uint32_t b) const
{
    return a < n && b < n && a != b && distance(a, b) == 1;
}

std::uint32_t
Topology::distance(std::uint32_t a, std::uint32_t b) const
{
    require(a < n && b < n, "distance(", a, ", ", b,
            ") out of range for ", n, " qubits");
    return dist[static_cast<std::size_t>(a) * n + b];
}

bool
Topology::connected() const
{
    if (n == 0)
        return false;
    for (std::uint32_t q = 0; q < n; ++q)
        if (dist[q] == kUnreachable)
            return false;
    return true;
}

std::uint32_t
Topology::diameter() const
{
    std::uint32_t widest = 0;
    for (const std::uint32_t d : dist)
        if (d != kUnreachable)
            widest = std::max(widest, d);
    return widest;
}

std::string
Topology::edgesSpec() const
{
    std::ostringstream out;
    out << "edges:" << n << ':';
    bool first = true;
    for (const auto &[a, b] : edgeList) {
        out << (first ? "" : ",") << a << '-' << b;
        first = false;
    }
    return out.str();
}

std::optional<Topology>
Topology::tryParseSpec(std::string_view spec, std::string *error)
{
    const auto reject = [&](std::string_view detail) {
        specFail(error, "malformed topology spec '" +
                            std::string(spec) + "': " +
                            std::string(detail));
        return std::nullopt;
    };

    const std::size_t colon = spec.find(':');
    const std::string_view family = spec.substr(0, colon);
    const std::string_view args =
        colon == std::string_view::npos ? std::string_view{}
                                        : spec.substr(colon + 1);

    const auto checkQubits = [&](std::size_t qubits) {
        return qubits >= 1 && qubits <= kMaxQubits;
    };

    if (family == "linear" || family == "all-to-all") {
        const auto count = parseCount(args);
        if (!count || !checkQubits(*count))
            return reject("expected " + std::string(family) +
                          ":<qubits 1.." +
                          std::to_string(kMaxQubits) + ">");
        return family == "linear" ? linear(*count)
                                  : allToAll(*count);
    }
    if (family == "grid") {
        const std::size_t x = args.find('x');
        if (x == std::string_view::npos)
            return reject("expected grid:<width>x<height>");
        const auto width = parseCount(args.substr(0, x));
        const auto height = parseCount(args.substr(x + 1));
        if (!width || !height || *width == 0 || *height == 0 ||
            !checkQubits(*width * *height))
            return reject("expected grid:<width>x<height>");
        return grid(*width, *height);
    }
    if (family == "heavy-hex") {
        const auto cells = parseCount(args);
        if (!cells || *cells == 0 ||
            !checkQubits(9 * *cells + 3))
            return reject("expected heavy-hex:<cells >= 1>");
        return heavyHex(*cells);
    }
    if (family == "edges") {
        const std::size_t colon2 = args.find(':');
        const auto qubits = parseCount(args.substr(0, colon2));
        if (colon2 == std::string_view::npos || !qubits ||
            !checkQubits(*qubits))
            return reject("expected edges:<qubits>:a-b,c-d,...");
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
        std::string_view list = args.substr(colon2 + 1);
        while (!list.empty()) {
            const std::size_t comma = list.find(',');
            const std::string_view item = list.substr(0, comma);
            list = comma == std::string_view::npos
                       ? std::string_view{}
                       : list.substr(comma + 1);
            const std::size_t dash = item.find('-');
            if (dash == std::string_view::npos)
                return reject("expected edge '<a>-<b>', got '" +
                              std::string(item) + "'");
            const auto a = parseCount(item.substr(0, dash));
            const auto b = parseCount(item.substr(dash + 1));
            if (!a || !b || *a >= *qubits || *b >= *qubits ||
                *a == *b)
                return reject("bad edge '" + std::string(item) +
                              "' for " + std::to_string(*qubits) +
                              " qubits");
            edges.push_back({static_cast<std::uint32_t>(*a),
                             static_cast<std::uint32_t>(*b)});
        }
        return fromEdges(*qubits, std::move(edges));
    }

    static const std::vector<std::string> families = {
        "linear", "grid", "heavy-hex", "all-to-all", "edges"};
    if (const auto nearest = suggestNearest(family, families))
        return reject("unknown family '" + std::string(family) +
                      "' (did you mean '" + *nearest + "'?)");
    return reject("unknown family '" + std::string(family) +
                  "' (linear, grid, heavy-hex, all-to-all, edges)");
}

Topology
Topology::parseSpec(std::string_view spec)
{
    std::string error;
    auto topology = tryParseSpec(spec, &error);
    if (!topology)
        fatal(error);
    return *std::move(topology);
}

} // namespace fermihedral::hw
