/**
 * @file
 * Monte-Carlo noise model and high-throughput trajectory engine for
 * the end-to-end studies.
 *
 * Depolarizing channels are realised as stochastic Pauli errors per
 * gate (trajectory / quantum-jump method, the same family Qiskit Aer
 * uses for the paper's Figures 8-9), plus classical readout bit
 * flips during measurement sampling. The IonQ Aria-1 profile of the
 * real-system study (Fig. 10) is provided as a preset.
 *
 * Energy estimation is grouped: a MeasurementPlan partitions the
 * Hamiltonian into qubit-wise commuting families once, so each shot
 * rotates and samples once per family instead of once per term.
 * measureEnergy() fans its shots across a thread pool with one
 * forked RNG stream per shot.
 *
 * Key invariants:
 *  - Injected errors are uniformly random non-identity Paulis on
 *    exactly the qubit(s) the gate touched (1 of 3 for single-qubit
 *    gates, 1 of 15 for CNOT) — standard depolarizing channels.
 *  - With NoiseModel::ideal() every function reduces exactly to
 *    the noiseless behaviour; sampleEnergy still samples shot
 *    noise, but trajectories equal applyCircuit().
 *  - All randomness flows through the caller's Rng, so whole
 *    experiments are reproducible from one seed. measureEnergy()
 *    draws exactly once from the caller's Rng and derives shot
 *    stream s with Rng::fork(s), so its results are bit-identical
 *    for every thread count.
 *  - Both sampleEnergy estimators are unbiased for <H>: grouped
 *    measurement only correlates the terms inside one family (it
 *    changes the variance, never the mean).
 */

#ifndef FERMIHEDRAL_SIM_NOISE_H
#define FERMIHEDRAL_SIM_NOISE_H

#include "circuit/circuit.h"
#include "circuit/passes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "pauli/pauli_sum.h"
#include "sim/statevector.h"

namespace fermihedral::sim {

/** Error probabilities per operation. */
struct NoiseModel
{
    /** Pauli error probability after each single-qubit gate. */
    double singleQubitError = 0.0;
    /** Two-qubit Pauli error probability after each CNOT. */
    double twoQubitError = 0.0;
    /** Per-bit classical flip probability at readout. */
    double readoutError = 0.0;

    /** No-noise model. */
    static NoiseModel ideal() { return {}; }

    /**
     * IonQ Aria-1 profile quoted in the paper's setup: 99.99%
     * single-qubit, 98.91% two-qubit and 98.82% readout fidelity.
     */
    static NoiseModel
    ionqAria1()
    {
        return NoiseModel{1.0 - 0.9999, 1.0 - 0.9891, 1.0 - 0.9882};
    }
};

/**
 * Run one noisy trajectory of the circuit from `initial`: apply each
 * gate, then with the channel probability inject a uniformly random
 * non-identity Pauli error on the touched qubit(s). `out` is
 * overwritten with the final state, reusing its amplitude buffer.
 */
void runNoisyTrajectoryInto(const circuit::Circuit &circuit,
                            const StateVector &initial,
                            const NoiseModel &noise, Rng &rng,
                            StateVector &out);

/**
 * Trajectory over a per-gate lowered circuit (one op per original
 * gate, rotation trig precomputed — see circuit::lowerToMatrices).
 * `lowered` MUST be unfused: matrix ops draw the single-qubit
 * channel, CNOTs the two-qubit channel, so merging runs would
 * change how many error opportunities the trajectory sees. Gate
 * order and RNG consumption match the Circuit overload exactly.
 */
void runNoisyTrajectoryInto(const circuit::FusedCircuit &lowered,
                            const StateVector &initial,
                            const NoiseModel &noise, Rng &rng,
                            StateVector &out);

/**
 * Precomputed measurement protocol for one Hamiltonian: its
 * qubit-wise commuting families, each with a fused basis-rotation
 * circuit and the per-term Z-supports to read off one sample.
 * Build once, reuse for every shot.
 */
class MeasurementPlan
{
  public:
    /** One term read from a family's sample. */
    struct MeasuredTerm
    {
        /** Re(coefficient) — the Hermitian part the estimate uses. */
        double coefficient;
        /** After rotation the term is Z on exactly these qubits. */
        std::uint64_t supportMask;
    };

    /** One qubit-wise commuting family. */
    struct Group
    {
        /** Rotates the family's shared basis into Z. */
        circuit::FusedCircuit rotation;
        std::vector<MeasuredTerm> terms;
    };

    explicit MeasurementPlan(const pauli::PauliSum &hamiltonian);

    std::size_t numQubits() const { return n; }
    const std::vector<Group> &groups() const { return groupList; }

    /** Exact contribution of the Hamiltonian's identity terms. */
    double identityEnergy() const { return identity; }

  private:
    std::size_t n;
    double identity = 0.0;
    std::vector<Group> groupList;
};

/**
 * One-shot sampled estimate of <H>, term by term: every Pauli term
 * is measured once by basis rotation and basis-state sampling with
 * readout flips. Identity terms contribute their coefficients
 * exactly. This is the ungrouped reference estimator; shot loops
 * should use the MeasurementPlan overload.
 */
double sampleEnergy(const StateVector &state,
                    const pauli::PauliSum &hamiltonian,
                    const NoiseModel &noise, Rng &rng);

/**
 * One-shot grouped estimate of <H>: one basis rotation, one sample
 * and one set of readout flips per commuting family; every term in
 * the family is read from the same bit string.
 */
double sampleEnergy(const StateVector &state,
                    const MeasurementPlan &plan,
                    const NoiseModel &noise, Rng &rng);

/** Aggregate over many shots. */
struct EnergyStatistics
{
    double mean = 0.0;
    double standardDeviation = 0.0;
    std::size_t shots = 0;
    /** Wall-clock time measureEnergy spent, for throughput. */
    double elapsedSeconds = 0.0;
};

/**
 * Full experiment for one (circuit, Hamiltonian, noise) setting:
 * `shots` independent trajectories, each measured with the grouped
 * sampleEnergy. Shots fan out over the caller's thread pool (reuse
 * one pool across experiments — workers persist between calls);
 * every shot draws from its own forked RNG stream, so the
 * statistics are bit-identical for any thread count. When the
 * gate-error rates are zero the trajectory state is computed once
 * and shots reduce to SampleTable draws. Returns the observed
 * energy statistics.
 */
EnergyStatistics measureEnergy(const circuit::Circuit &circuit,
                               const StateVector &initial,
                               const pauli::PauliSum &hamiltonian,
                               const NoiseModel &noise,
                               std::size_t shots, Rng &rng,
                               ThreadPool &pool);

} // namespace fermihedral::sim

#endif // FERMIHEDRAL_SIM_NOISE_H
