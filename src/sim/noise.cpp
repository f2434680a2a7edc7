#include "sim/noise.h"

#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "pauli/commuting_groups.h"

namespace fermihedral::sim {

namespace {

/** Apply one uniformly random non-identity Pauli to `qubit`. */
void
injectPauli(StateVector &state, std::uint32_t qubit, Rng &rng)
{
    static constexpr circuit::GateKind paulis[3] = {
        circuit::GateKind::X, circuit::GateKind::Y,
        circuit::GateKind::Z};
    const auto pick = static_cast<std::size_t>(rng.nextBelow(3));
    state.applyGate(circuit::Gate{paulis[pick], qubit, 0, 0.0});
}

/** Apply one of the 15 non-identity two-qubit Paulis. */
void
injectTwoQubitPauli(StateVector &state, std::uint32_t qubit_a,
                    std::uint32_t qubit_b, Rng &rng)
{
    const auto pick = static_cast<std::uint32_t>(rng.nextBelow(15));
    // pick + 1 in base 4: digit 0 -> qubit_a, digit 1 -> qubit_b.
    const std::uint32_t code = pick + 1;
    static constexpr circuit::GateKind ops[4] = {
        circuit::GateKind::H /* unused slot for I */,
        circuit::GateKind::X, circuit::GateKind::Y,
        circuit::GateKind::Z};
    const std::uint32_t op_a = code % 4;
    const std::uint32_t op_b = code / 4;
    if (op_a != 0)
        state.applyGate(circuit::Gate{ops[op_a], qubit_a, 0, 0.0});
    if (op_b != 0)
        state.applyGate(circuit::Gate{ops[op_b], qubit_b, 0, 0.0});
}

/** Flip each of the n readout bits with the readout probability. */
std::uint64_t
flipReadout(std::uint64_t bits, std::size_t n,
            const NoiseModel &noise, Rng &rng)
{
    if (noise.readoutError <= 0)
        return bits;
    for (std::size_t q = 0; q < n; ++q) {
        if (rng.nextBool(noise.readoutError))
            bits ^= std::uint64_t{1} << q;
    }
    return bits;
}

/** Sum of +-coefficient over a family's terms for one sample. */
double
readGroup(const MeasurementPlan::Group &group, std::uint64_t bits)
{
    double energy = 0.0;
    for (const auto &term : group.terms) {
        const int parity = std::popcount(bits & term.supportMask) & 1;
        energy += parity == 0 ? term.coefficient : -term.coefficient;
    }
    return energy;
}

/**
 * Amplitudes the ideal-prefix checkpoints of one measureEnergy call
 * may hold in total: 2^21 complex doubles, 32 MiB.
 */
constexpr std::size_t kCheckpointAmplitudes = std::size_t{1} << 21;

/** Error probability of the channel that follows `op`. */
double
channelError(const circuit::FusedGate &op, const NoiseModel &noise)
{
    return op.isCnot ? noise.twoQubitError : noise.singleQubitError;
}

/** Inject the error of the channel that follows `op`. */
void
injectError(StateVector &state, const circuit::FusedGate &op,
            Rng &rng)
{
    if (op.isCnot)
        injectTwoQubitPauli(state, op.qubit0, op.qubit1, rng);
    else
        injectPauli(state, op.qubit0, rng);
}

/**
 * Draw the gate channels in circuit order — one nextBool() per gate
 * whose error rate is above 0, as a trajectory does — and return
 * the first gate whose channel fired, or the gate count if none did.
 */
std::size_t
firstError(const circuit::FusedCircuit &lowered,
           const NoiseModel &noise, Rng &rng)
{
    for (std::size_t i = 0; i < lowered.gates.size(); ++i) {
        const double p = channelError(lowered.gates[i], noise);
        if (p > 0 && rng.nextBool(p))
            return i;
    }
    return lowered.gates.size();
}

/**
 * Finish a trajectory whose first error fired at gate `k`: `state`
 * holds the state after gates [0, k]. Injects that error, then
 * applies the remaining gates with their channels, consuming the
 * rest of the RNG stream exactly as runNoisyTrajectoryInto does.
 */
void
replayFromError(const circuit::FusedCircuit &lowered, std::size_t k,
                const NoiseModel &noise, Rng &rng, StateVector &state)
{
    injectError(state, lowered.gates[k], rng);
    for (std::size_t i = k + 1; i < lowered.gates.size(); ++i) {
        const auto &op = lowered.gates[i];
        state.applyFusedGate(op);
        const double p = channelError(op, noise);
        if (p > 0 && rng.nextBool(p))
            injectError(state, op, rng);
    }
}

/**
 * The noiseless run of a lowered circuit with checkpoints: the state
 * before every stride-th gate, and the final state. The stored
 * checkpoints hold at most kCheckpointAmplitudes amplitudes; the
 * stride is the smallest that fits. The states are computed with
 * the kernels every trajectory uses, so they equal a trajectory's
 * state up to its first error bit-for-bit.
 */
class IdealRun
{
  public:
    IdealRun(const circuit::FusedCircuit &lowered,
             const StateVector &initial)
        : lowered(lowered), initial(initial), last(initial),
          stride(checkpointStride(lowered.gates.size(),
                                  initial.dimension()))
    {
        const std::size_t gates = lowered.gates.size();
        checkpoints.reserve(gates == 0 ? 0 : (gates - 1) / stride);
        for (std::size_t i = 0; i < gates; ++i) {
            if (i > 0 && i % stride == 0)
                checkpoints.push_back(last);
            last.applyFusedGate(lowered.gates[i]);
        }
    }

    /** Overwrite `out` with the ideal state after gates [0, k]. */
    void
    stateAfter(std::size_t k, StateVector &out) const
    {
        const std::size_t slot = k / stride;
        out = slot == 0 ? initial : checkpoints[slot - 1];
        for (std::size_t i = slot * stride; i <= k; ++i)
            out.applyFusedGate(lowered.gates[i]);
    }

    /** The ideal state after every gate. */
    const StateVector &finalState() const { return last; }

  private:
    /**
     * The state before gate 0 is `initial` itself; the stored
     * checkpoints sit before gates s, 2s, ... < gates, (gates - 1) / s
     * of them. The smallest s that keeps them within the budget.
     */
    static std::size_t
    checkpointStride(std::size_t gates, std::size_t dimension)
    {
        const std::size_t capacity = kCheckpointAmplitudes / dimension;
        return gates == 0 ? 1 : (gates - 1) / (capacity + 1) + 1;
    }

    const circuit::FusedCircuit &lowered;
    const StateVector &initial;
    StateVector last;
    std::size_t stride;
    std::vector<StateVector> checkpoints;
};

} // namespace

void
runNoisyTrajectoryInto(const circuit::Circuit &circuit,
                       const StateVector &initial,
                       const NoiseModel &noise, Rng &rng,
                       StateVector &out)
{
    out = initial;
    for (const auto &gate : circuit.gates()) {
        out.applyGate(gate);
        if (gate.kind == circuit::GateKind::Cnot) {
            if (noise.twoQubitError > 0 &&
                rng.nextBool(noise.twoQubitError)) {
                injectTwoQubitPauli(out, gate.qubit0, gate.qubit1,
                                    rng);
            }
        } else if (noise.singleQubitError > 0 &&
                   rng.nextBool(noise.singleQubitError)) {
            injectPauli(out, gate.qubit0, rng);
        }
    }
}

MeasurementPlan::MeasurementPlan(const pauli::PauliSum &hamiltonian)
    : n(hamiltonian.numQubits())
{
    const auto &terms = hamiltonian.terms();
    for (const auto &term : terms) {
        if (term.string.isIdentity())
            identity += term.coefficient.real();
    }
    const auto families =
        pauli::groupQubitWiseCommuting(hamiltonian);
    groupList.reserve(families.size());
    for (const auto &family : families) {
        Group group;
        circuit::Circuit rotation(n);
        for (std::size_t q = 0; q < n; ++q) {
            const auto qubit = static_cast<std::uint32_t>(q);
            switch (family.basis.op(q)) {
              case pauli::PauliOp::X:
                rotation.add(circuit::GateKind::H, qubit);
                break;
              case pauli::PauliOp::Y:
                rotation.add(circuit::GateKind::Sdg, qubit);
                rotation.add(circuit::GateKind::H, qubit);
                break;
              default:
                break;
            }
        }
        group.rotation = circuit::fuseSingleQubitGates(rotation);
        group.terms.reserve(family.termIndices.size());
        for (const std::size_t index : family.termIndices) {
            const auto &term = terms[index];
            group.terms.push_back(
                {term.coefficient.real(),
                 term.string.xMask() | term.string.zMask()});
        }
        groupList.push_back(std::move(group));
    }
}

double
sampleEnergy(const StateVector &state,
             const pauli::PauliSum &hamiltonian,
             const NoiseModel &noise, Rng &rng)
{
    double energy = 0.0;
    for (const auto &term : hamiltonian.terms()) {
        if (term.string.isIdentity()) {
            energy += term.coefficient.real();
            continue;
        }
        // Rotate this term's support into the Z basis.
        StateVector rotated = state;
        std::uint64_t support = 0;
        for (std::size_t q = 0; q < term.string.numQubits(); ++q) {
            const pauli::PauliOp op = term.string.op(q);
            if (op == pauli::PauliOp::I)
                continue;
            support |= std::uint64_t{1} << q;
            const auto qubit = static_cast<std::uint32_t>(q);
            if (op == pauli::PauliOp::X) {
                rotated.applyGate(
                    {circuit::GateKind::H, qubit, 0, 0.0});
            } else if (op == pauli::PauliOp::Y) {
                rotated.applyGate(
                    {circuit::GateKind::Sdg, qubit, 0, 0.0});
                rotated.applyGate(
                    {circuit::GateKind::H, qubit, 0, 0.0});
            }
        }
        std::uint64_t bits = rotated.sampleBasisState(rng);
        bits = flipReadout(bits, term.string.numQubits(), noise,
                           rng);
        const int parity = std::popcount(bits & support) % 2;
        const double value = parity == 0 ? 1.0 : -1.0;
        energy += term.coefficient.real() * value;
    }
    return energy;
}

double
sampleEnergy(const StateVector &state, const MeasurementPlan &plan,
             const NoiseModel &noise, Rng &rng)
{
    require(state.numQubits() == plan.numQubits(),
            "measurement plan width does not match state");
    // Per-thread scratch so shot loops neither allocate nor share.
    thread_local StateVector rotated(1);
    double energy = plan.identityEnergy();
    for (const auto &group : plan.groups()) {
        rotated = state;
        rotated.applyFused(group.rotation);
        std::uint64_t bits = rotated.sampleBasisState(rng);
        bits = flipReadout(bits, plan.numQubits(), noise, rng);
        energy += readGroup(group, bits);
    }
    return energy;
}

EnergyStatistics
measureEnergy(const circuit::Circuit &circuit,
              const StateVector &initial,
              const pauli::PauliSum &hamiltonian,
              const NoiseModel &noise, std::size_t shots, Rng &rng,
              ThreadPool &pool)
{
    require(shots >= 1, "measureEnergy needs at least one shot");
    require(initial.numQubits() == circuit.numQubits(),
            "circuit width does not match state");
    Timer timer;
    telemetry::TraceSpan span("sim.measure_energy");
    if (span.active())
        span.arg("shots", shots);
    const MeasurementPlan plan = [&] {
        telemetry::TraceSpan plan_span("sim.plan_build");
        return MeasurementPlan(hamiltonian);
    }();
    // One draw from the caller, then one forked stream per shot:
    // shot s sees the same randomness on every thread count.
    Rng master = rng.split();
    std::vector<double> energies(shots);

    {
        telemetry::TraceSpan sample_span("sim.sample");
        // One matrix per gate, trig evaluated once for all shots.
        const auto lowered = circuit::lowerToMatrices(circuit);
        // Every shot follows the ideal run up to its first error, so
        // the ideal prefix states and the per-family sampling tables
        // of the ideal final state are computed once per call.
        const IdealRun ideal(lowered, initial);
        std::vector<SampleTable> tables;
        tables.reserve(plan.groups().size());
        StateVector rotated(1);
        for (const auto &group : plan.groups()) {
            rotated = ideal.finalState();
            rotated.applyFused(group.rotation);
            tables.emplace_back(rotated);
        }
        // A shot draws its gate channels, then either samples the
        // ideal state from the tables (no error; a table draw equals
        // sampleBasisState on the rotated state) or replays from its
        // first error. Either way it consumes its stream and does
        // the floating-point work of a full trajectory followed by
        // the grouped sampleEnergy, so results match that exactly.
        pool.forEach(shots, [&](std::size_t shot) {
            Rng shot_rng = master.fork(shot);
            const std::size_t k = firstError(lowered, noise, shot_rng);
            if (k < lowered.gates.size()) {
                thread_local StateVector trajectory(1);
                ideal.stateAfter(k, trajectory);
                replayFromError(lowered, k, noise, shot_rng,
                                trajectory);
                energies[shot] =
                    sampleEnergy(trajectory, plan, noise, shot_rng);
                return;
            }
            double energy = plan.identityEnergy();
            for (std::size_t g = 0; g < tables.size(); ++g) {
                std::uint64_t bits = tables[g].sample(shot_rng);
                bits = flipReadout(bits, plan.numQubits(), noise,
                                   shot_rng);
                energy += readGroup(plan.groups()[g], bits);
            }
            energies[shot] = energy;
        });
    }
    telemetry::MetricsRegistry::global()
        .counter("sim.shots")
        .add(shots);

    // Reduce in shot order: the sums are independent of how the
    // pool scheduled the shots.
    double sum = 0.0, sum_sq = 0.0;
    for (const double energy : energies) {
        sum += energy;
        sum_sq += energy * energy;
    }
    EnergyStatistics stats;
    stats.shots = shots;
    stats.mean = sum / static_cast<double>(shots);
    const double variance =
        std::max(0.0, sum_sq / static_cast<double>(shots) -
                          stats.mean * stats.mean);
    stats.standardDeviation = std::sqrt(variance);
    stats.elapsedSeconds = timer.seconds();
    return stats;
}

} // namespace fermihedral::sim
