/**
 * @file
 * Dynamic-fixed-point inference (paper Section III-D, Figure 6): the
 * software precision study.  Inputs/activations and synaptic weights
 * of every layer are rounded to dynamic fixed point [68] of
 * configurable bit widths while the arithmetic stays in doubles;
 * sweeping 1..8 bits reproduces the accuracy-vs-precision surface.
 *
 * The composed hardware datapath (input & synapse composing, SA
 * windows, split-merge) is not modeled here: it runs only in
 * core::PrimeSystem, on the mapped crossbars.
 */

#ifndef PRIME_NN_QUANTIZED_HH
#define PRIME_NN_QUANTIZED_HH

#include <vector>

#include "common/fixed_point.hh"
#include "nn/network.hh"
#include "nn/topology.hh"
#include "reram/composing.hh"
#include "reram/faults.hh"

namespace prime::nn {

/** Quantization configuration. */
struct QuantizedOptions
{
    /** Input/activation precision in bits (Figure 6 x-axis). */
    int inputBits = 6;
    /** Synaptic weight precision in bits (Figure 6 series). */
    int weightBits = 8;
    /** Cell layout injectCellFaults() corrupts the weights under. */
    reram::ComposingParams composing;
};

/**
 * An inference-only network with per-layer quantized weights, built by
 * lifting the trained parameters out of a functional Network.
 */
class QuantizedNetwork
{
  public:
    /**
     * @param topology layer specs (must match @p trained layer for layer)
     * @param trained  the float network whose weights are quantized
     */
    QuantizedNetwork(const Topology &topology, const Network &trained,
                     const QuantizedOptions &options);

    /** Quantized forward pass; returns logits. */
    Tensor forward(const Tensor &input) const;

    /** Argmax classification. */
    int predict(const Tensor &input) const;

    /** Accuracy over a dataset. */
    double accuracy(const std::vector<Sample> &samples) const;

    /**
     * Reliability study hooks: corrupt the stored weights as the
     * physical arrays would.  injectCellFaults() applies stuck-at
     * faults under the composing cell layout (reram::injectWeightFaults)
     * to every weighted layer; applyProgrammingVariation() perturbs each
     * weight multiplicatively with the lognormal conductance-tuning
     * error of [31].  Both are destructive; construct a fresh network
     * per trial.
     */
    void injectCellFaults(const reram::FaultModel &model, Rng &rng);
    void applyProgrammingVariation(double sigma, Rng &rng);

    const QuantizedOptions &options() const { return options_; }

  private:
    /** Per-layer quantized parameters. */
    struct QLayer
    {
        LayerSpec spec;
        /** Weights after quantize-dequantize (dfx round trip). */
        std::vector<double> weights;
        std::vector<double> bias;
        DfxFormat weightFormat;
    };

    Tensor quantizeActivations(const Tensor &x) const;
    static Tensor forwardFc(const QLayer &q, const Tensor &x);
    static Tensor forwardConv(const QLayer &q, const Tensor &x);

    Topology topology_;
    QuantizedOptions options_;
    std::vector<QLayer> qlayers_;
};

} // namespace prime::nn

#endif // PRIME_NN_QUANTIZED_HH
