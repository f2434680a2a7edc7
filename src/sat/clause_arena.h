/**
 * @file
 * Bump-allocated clause storage with 32-bit references.
 *
 * All clauses of one solver live in a single contiguous word array.
 * A ClauseRef is the word offset of a clause header, so the whole
 * database is addressed with 4-byte handles instead of pointers,
 * halving watcher size and keeping propagation cache-friendly. Each
 * clause inlines its metadata ahead of the literals:
 *
 *   word 0: size << 2 | relocated << 1 | learnt
 *   word 1: activity (float bits) for learnt clauses,
 *           forwarding address while relocated
 *   word 2: LBD ("glue") for learnt clauses
 *   word 3...: literal codes
 *
 * Clauses shrink in place (vivification) and are
 * freed by marking; the freed words are counted as waste. When the
 * waste crosses a threshold the owner runs a copying collection:
 * every live clause is relocated into a fresh arena and the old
 * header becomes a forwarding record, so the owner can rewrite every
 * stored ClauseRef (clause lists, watcher lists, reason slots) by a
 * single forward() lookup.
 *
 * Key invariants:
 *  - A ClauseRef returned by alloc() stays valid — same literals,
 *    same metadata — until free() or the relocation that retires
 *    the arena generation; refs never escape the owning solver.
 *  - shrink() only shortens: freed literal words are accounted as
 *    waste but the header offset is unchanged, so watcher lists
 *    remain valid as long as the first two literals are kept.
 *  - After relocate(), isRelocated(old_ref) is true and
 *    forward(old_ref) names the copy in the destination arena;
 *    metadata and literal order are preserved exactly.
 *  - wasted() never exceeds size(); both are in 32-bit words.
 */

#ifndef FERMIHEDRAL_SAT_CLAUSE_ARENA_H
#define FERMIHEDRAL_SAT_CLAUSE_ARENA_H

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sat/types.h"

namespace fermihedral::sat {

/** Offset of a clause header in a ClauseArena. */
using ClauseRef = std::uint32_t;

/** Sentinel for "no clause" (decision / unit reasons). */
constexpr ClauseRef crefUndef =
    std::numeric_limits<ClauseRef>::max();

/** Bump allocator for clauses (see file comment). */
class ClauseArena
{
  public:
    /** Words of metadata ahead of each clause's literals. */
    static constexpr std::uint32_t headerWords = 3;

    ClauseArena() { words.reserve(1 << 16); }

    /** Append a clause; literals must be non-empty. */
    ClauseRef alloc(std::span<const Lit> literals, bool learnt);

    std::uint32_t size(ClauseRef ref) const
    {
        return words[ref] >> 2;
    }
    bool learnt(ClauseRef ref) const { return words[ref] & 1; }

    Lit *lits(ClauseRef ref)
    {
        return reinterpret_cast<Lit *>(&words[ref + headerWords]);
    }
    const Lit *lits(ClauseRef ref) const
    {
        return reinterpret_cast<const Lit *>(
            &words[ref + headerWords]);
    }
    std::span<const Lit> clause(ClauseRef ref) const
    {
        return {lits(ref), size(ref)};
    }

    float activity(ClauseRef ref) const;
    void activity(ClauseRef ref, float value);

    std::uint32_t lbd(ClauseRef ref) const
    {
        return words[ref + 2];
    }
    void lbd(ClauseRef ref, std::uint32_t value)
    {
        words[ref + 2] = value;
    }

    /** Shorten a clause in place; freed words become waste. */
    void shrink(ClauseRef ref, std::uint32_t new_size);

    /** Retire a clause; its words become waste. */
    void free(ClauseRef ref);

    /**
     * Copy a live clause into `to` and leave a forwarding record
     * behind. Idempotent: a second call returns the first copy.
     */
    ClauseRef relocate(ClauseRef ref, ClauseArena &to);

    bool isRelocated(ClauseRef ref) const
    {
        return words[ref] & 2;
    }

    /** Destination of a relocated clause. */
    ClauseRef forward(ClauseRef ref) const
    {
        return static_cast<ClauseRef>(words[ref + 1]);
    }

    /** Total words allocated. */
    std::size_t size() const { return words.size(); }

    /** Words retired by shrink()/free(). */
    std::size_t wasted() const { return wastedWords; }

    /** True when `ref` points at a plausible clause header. */
    bool validRef(ClauseRef ref) const;

  private:
    std::vector<std::uint32_t> words;
    std::size_t wastedWords = 0;
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_CLAUSE_ARENA_H
