#include "sat/preprocess.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace fermihedral::sat {

namespace {

/**
 * Skip BVE for variables occurring (both phases combined) more
 * often than this: the resolvent check would be quadratic.
 */
constexpr std::size_t kEliminationOccurrenceLimit = 24;

/** Resolvents longer than this block their elimination. */
constexpr std::size_t kEliminationClauseLimit = 8;

/** Maximum propagation+elimination rounds before settling. */
constexpr std::size_t kMaxRounds = 8;

} // namespace

Simplifier::Simplifier(std::size_t num_vars)
    : occurrences(2 * num_vars), values(num_vars, LBool::Undef),
      frozen(num_vars, 0), eliminated(num_vars, 0)
{
}

bool
Simplifier::overBudget() const
{
    return Timer::nowSeconds() >= deadline;
}

bool
Simplifier::pollBudget()
{
    // The clock read costs more than a cheap queue step does:
    // sample it instead of reading it on every iteration.
    if ((++budgetTick & 63u) != 0)
        return false;
    return overBudget();
}

LBool
Simplifier::valueOf(Lit lit) const
{
    const LBool v = values[litVar(lit)];
    return litSign(lit) ? -v : v;
}

void
Simplifier::enqueueUnit(Lit lit)
{
    const Var var = litVar(lit);
    const LBool value = litSign(lit) ? LBool::False : LBool::True;
    if (values[var] == value)
        return;
    if (values[var] != LBool::Undef) {
        contradiction = true;
        return;
    }
    values[var] = value;
    ++statistics.fixedVariables;
    unitQueue.push_back(var);
}

void
Simplifier::removeClauseAt(std::size_t index)
{
    // Occurrence entries of removed clauses are left stale and
    // filtered by the `removed` flag on every scan: active entries
    // therefore always point to clauses that do contain the
    // literal they are indexed under.
    clauses[index].removed = true;
    clauses[index].lits.clear();
    clauses[index].lits.shrink_to_fit();
}

void
Simplifier::addClause(std::span<const Lit> literals)
{
    require(!ran, "Simplifier::addClause after run()");
    ++statistics.originalClauses;
    statistics.originalLiterals += literals.size();
    insertClause(std::vector<Lit>(literals.begin(), literals.end()));
}

void
Simplifier::freeze(Var var)
{
    require(var >= 0 &&
                static_cast<std::size_t>(var) < values.size(),
            "freeze of unknown variable ", var);
    frozen[var] = 1;
}

bool
Simplifier::insertClause(std::vector<Lit> lits)
{
    if (contradiction)
        return false;
    std::sort(lits.begin(), lits.end());
    Lit previous = litUndef;
    std::size_t keep = 0;
    for (const Lit lit : lits) {
        require(litVar(lit) >= 0 &&
                    static_cast<std::size_t>(litVar(lit)) <
                        values.size(),
                "clause references unknown variable");
        if (lit == previous)
            continue; // duplicate literal
        if (previous != litUndef && lit == ~previous)
            return true; // tautology
        if (valueOf(lit) == LBool::True)
            return true; // satisfied at top level
        if (valueOf(lit) == LBool::False)
            continue; // falsified at top level
        lits[keep++] = lit;
        previous = lit;
    }
    lits.resize(keep);

    if (lits.empty()) {
        contradiction = true;
        return false;
    }
    if (lits.size() == 1) {
        enqueueUnit(lits[0]);
        return !contradiction;
    }
    const std::size_t index = clauses.size();
    clauses.push_back({std::move(lits), false});
    for (const Lit lit : clauses[index].lits)
        occurrences[lit.code].push_back(index);
    return true;
}

bool
Simplifier::propagateUnits()
{
    while (!unitQueue.empty() && !contradiction) {
        const Var var = unitQueue.back();
        unitQueue.pop_back();
        const Lit lit =
            mkLit(var, values[var] == LBool::False);

        for (const std::size_t index : occurrences[lit.code]) {
            if (!clauses[index].removed)
                removeClauseAt(index); // satisfied clause
        }
        occurrences[lit.code].clear();

        // Detach the false literal from every remaining clause.
        std::vector<std::size_t> falsified;
        falsified.swap(occurrences[(~lit).code]);
        for (const std::size_t index : falsified) {
            if (clauses[index].removed)
                continue;
            auto &clause = clauses[index];
            clause.lits.erase(std::find(clause.lits.begin(),
                                        clause.lits.end(), ~lit));
            if (clause.lits.empty()) {
                contradiction = true;
                return false;
            }
            if (clause.lits.size() == 1) {
                enqueueUnit(clause.lits[0]);
                removeClauseAt(index);
            }
        }
    }
    return !contradiction;
}

bool
Simplifier::resolve(const std::vector<Lit> &pos,
                    const std::vector<Lit> &neg, Var var,
                    std::vector<Lit> &out)
{
    // Merge the sorted operands, skipping the pivot literals;
    // adjacent equal codes collapse, adjacent complementary codes
    // make the resolvent a tautology.
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < pos.size() || j < neg.size()) {
        Lit next;
        if (j == neg.size() ||
            (i < pos.size() && pos[i].code <= neg[j].code)) {
            next = pos[i++];
        } else {
            next = neg[j++];
        }
        if (litVar(next) == var)
            continue;
        if (!out.empty()) {
            if (out.back() == next)
                continue;
            if (out.back() == ~next)
                return false; // tautology
        }
        out.push_back(next);
    }
    return true;
}

bool
Simplifier::tryEliminate(Var var)
{
    if (frozen[var] || eliminated[var] ||
        values[var] != LBool::Undef) {
        return false;
    }
    const Lit lit = mkLit(var);
    std::vector<std::size_t> pos, neg;
    for (const std::size_t index : occurrences[lit.code]) {
        if (!clauses[index].removed)
            pos.push_back(index);
    }
    for (const std::size_t index : occurrences[(~lit).code]) {
        if (!clauses[index].removed)
            neg.push_back(index);
    }
    const std::size_t before = pos.size() + neg.size();
    if (before > kEliminationOccurrenceLimit)
        return false;

    // Bounded check: elimination may not grow the clause database
    // nor create clauses longer than kEliminationClauseLimit.
    std::vector<std::vector<Lit>> resolvents;
    std::vector<Lit> resolvent;
    for (const std::size_t p : pos) {
        for (const std::size_t n : neg) {
            if (!resolve(clauses[p].lits, clauses[n].lits, var,
                         resolvent))
                continue; // tautology
            if (resolvent.empty() ||
                resolvent.size() > kEliminationClauseLimit)
                return false;
            resolvents.push_back(resolvent);
            if (resolvents.size() > before)
                return false;
        }
    }

    // Commit. The positive-phase clauses become the witness: the
    // reconstruction rule (Eén & Biere) sets `lit` true exactly
    // when one of them is not satisfied by the other literals.
    Witness witness;
    witness.lit = lit;
    for (const std::size_t p : pos)
        witness.clauses.push_back(clauses[p].lits);
    witnesses.push_back(std::move(witness));
    for (const std::size_t index : pos)
        removeClauseAt(index);
    for (const std::size_t index : neg)
        removeClauseAt(index);
    occurrences[lit.code].clear();
    occurrences[(~lit).code].clear();
    eliminated[var] = 1;
    ++statistics.eliminatedVariables;
    for (auto &clause : resolvents) {
        ++statistics.resolventsAdded;
        if (!insertClause(std::move(clause)))
            return true; // contradiction recorded
    }
    return true;
}

bool
Simplifier::eliminationPass(bool &changed)
{
    // Cheap variables first: elimination order matters, and low
    // occurrence counts are both the likeliest wins and the
    // cheapest resolvent checks.
    std::vector<std::pair<std::size_t, Var>> candidates;
    auto live_count = [this](Lit lit) {
        // Occurrence lists keep stale entries for removed clauses;
        // counting them raw would both mis-order candidates and
        // permanently skip variables pushed over the limit by
        // clauses earlier eliminations already deleted.
        std::size_t count = 0;
        for (const std::size_t index : occurrences[lit.code])
            count += clauses[index].removed ? 0 : 1;
        return count;
    };
    for (Var var = 0;
         static_cast<std::size_t>(var) < values.size(); ++var) {
        if (frozen[var] || eliminated[var] ||
            values[var] != LBool::Undef)
            continue;
        const Lit lit = mkLit(var);
        const std::size_t count =
            live_count(lit) + live_count(~lit);
        if (count <= kEliminationOccurrenceLimit)
            candidates.emplace_back(count, var);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto &[count, var] : candidates) {
        if (!propagateUnits())
            return false;
        if (pollBudget())
            break;
        if (tryEliminate(var))
            changed = true;
        if (contradiction)
            return false;
    }
    return true;
}

void
Simplifier::run(double run_deadline)
{
    require(!ran, "Simplifier::run() may only be called once");
    ran = true;
    telemetry::TraceSpan span("sat.simplify");
    const Timer run_timer;
    deadline = run_deadline;
    budgetTick = 0;
    for (std::size_t round = 0; round < kMaxRounds; ++round) {
        if (overBudget())
            break;
        if (!propagateUnits())
            break;
        bool changed = false;
        if (!eliminationPass(changed))
            break;
        ++statistics.rounds;
        if (!changed && unitQueue.empty())
            break;
    }
    if (!contradiction)
        propagateUnits();

    statistics.seconds = run_timer.seconds();
    statistics.simplifiedClauses = 0;
    statistics.simplifiedLiterals = 0;
    if (!contradiction) {
        for (const auto &clause : clauses) {
            if (clause.removed)
                continue;
            ++statistics.simplifiedClauses;
            statistics.simplifiedLiterals += clause.lits.size();
        }
        for (const LBool value : values) {
            if (value != LBool::Undef) {
                ++statistics.simplifiedClauses;
                ++statistics.simplifiedLiterals;
            }
        }
    }
    if (span.active()) {
        span.arg("rounds", statistics.rounds);
        span.arg("original_clauses", statistics.originalClauses);
        span.arg("simplified_clauses",
                 statistics.simplifiedClauses);
        span.arg("eliminated_vars",
                 statistics.eliminatedVariables);
    }
}

std::vector<std::vector<Lit>>
Simplifier::simplifiedClauses() const
{
    std::vector<std::vector<Lit>> out;
    if (contradiction)
        return out;
    // Units first so a loading solver fixes them before anything
    // else propagates; then the surviving clause database.
    for (Var var = 0;
         static_cast<std::size_t>(var) < values.size(); ++var) {
        if (values[var] != LBool::Undef) {
            out.push_back(
                {mkLit(var, values[var] == LBool::False)});
        }
    }
    for (const auto &clause : clauses) {
        if (!clause.removed)
            out.push_back(clause.lits);
    }
    return out;
}

bool
Simplifier::isEliminated(Var var) const
{
    require(var >= 0 &&
                static_cast<std::size_t>(var) < values.size(),
            "isEliminated of unknown variable ", var);
    return eliminated[var] != 0;
}

void
Simplifier::reconstruct(std::vector<LBool> &model) const
{
    require(model.size() >= values.size(),
            "reconstruct model too small: ", model.size(), " < ",
            values.size());
    for (std::size_t var = 0; var < values.size(); ++var) {
        if (values[var] != LBool::Undef)
            model[var] = values[var];
    }
    // Replay eliminations backwards: each witness clause list holds
    // every clause that contained `lit` at elimination time, over
    // variables that were either never eliminated or eliminated
    // later (and therefore already reconstructed here).
    for (auto it = witnesses.rbegin(); it != witnesses.rend();
         ++it) {
        bool need = false;
        for (const auto &clause : it->clauses) {
            bool satisfied_by_rest = false;
            for (const Lit lit : clause) {
                if (lit == it->lit)
                    continue;
                const LBool v = model[litVar(lit)];
                if ((litSign(lit) ? -v : v) == LBool::True) {
                    satisfied_by_rest = true;
                    break;
                }
            }
            if (!satisfied_by_rest) {
                need = true;
                break;
            }
        }
        model[litVar(it->lit)] =
            need ? LBool::True : LBool::False;
    }
}

} // namespace fermihedral::sat
