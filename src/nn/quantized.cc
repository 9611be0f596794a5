#include "nn/quantized.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/layers.hh"

namespace prime::nn {

namespace {

/** Elementwise sigmoid. */
Tensor
applySigmoid(const Tensor &x)
{
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = 1.0 / (1.0 + std::exp(-y[i]));
    return y;
}

/** Elementwise ReLU. */
Tensor
applyRelu(const Tensor &x)
{
    Tensor y = x;
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = y[i] < 0.0 ? 0.0 : y[i];
    return y;
}

/** 2x2-style pooling driven by the spec dims. */
Tensor
applyPool(const LayerSpec &s, const Tensor &x, bool mean)
{
    Tensor y({s.outC, s.outH, s.outW});
    for (int c = 0; c < s.outC; ++c)
        for (int oy = 0; oy < s.outH; ++oy)
            for (int ox = 0; ox < s.outW; ++ox) {
                double best = -1.0e300, sum = 0.0;
                for (int dy = 0; dy < s.poolK; ++dy)
                    for (int dx = 0; dx < s.poolK; ++dx) {
                        const double v =
                            x.at3(c, oy * s.poolK + dy, ox * s.poolK + dx);
                        best = std::max(best, v);
                        sum += v;
                    }
                y.at3(c, oy, ox) =
                    mean ? sum / (s.poolK * s.poolK) : best;
            }
    return y;
}

} // namespace

QuantizedNetwork::QuantizedNetwork(const Topology &topology,
                                   const Network &trained,
                                   const QuantizedOptions &options)
    : topology_(topology), options_(options)
{
    PRIME_ASSERT(topology.layers.size() == trained.layerCount(),
                 "topology/network layer count mismatch: ",
                 topology.layers.size(), " vs ", trained.layerCount());
    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        QLayer q;
        q.spec = topology.layers[i];
        const Layer &layer = trained.layer(i);
        PRIME_ASSERT(layer.kind() == q.spec.kind,
                     "layer kind mismatch at index ", i);
        if (const auto *w = layer.weights()) {
            q.weights = *w;
            // Courbariaux-style scaling: tolerate ~1% clipped outliers
            // for a finer step.
            q.weightFormat =
                dfxRoundVector(q.weights, options_.weightBits, 0.01);
        }
        if (const auto *b = layer.bias()) {
            q.bias = *b;
            // Bias is accumulated digitally; keep it at weight precision
            // with its own dynamic scale.
            dfxRoundVector(q.bias, options_.weightBits);
        }
        qlayers_.push_back(std::move(q));
    }
}

void
QuantizedNetwork::injectCellFaults(const reram::FaultModel &model,
                                   Rng &rng)
{
    const int max_w = (1 << options_.composing.weightBits) - 1;
    for (QLayer &q : qlayers_) {
        if (q.weights.empty())
            continue;
        // Lift weights to composing codes, corrupt, drop back.
        std::vector<std::vector<int>> codes(
            1, std::vector<int>(q.weights.size()));
        for (std::size_t i = 0; i < q.weights.size(); ++i) {
            const double mant = std::nearbyint(
                std::ldexp(q.weights[i], q.weightFormat.fracLength));
            codes[0][i] = static_cast<int>(std::clamp(
                mant, static_cast<double>(-max_w),
                static_cast<double>(max_w)));
        }
        std::vector<std::vector<int>> faulty =
            reram::injectWeightFaults(codes, options_.composing, model,
                                      rng);
        for (std::size_t i = 0; i < q.weights.size(); ++i)
            q.weights[i] = std::ldexp(static_cast<double>(faulty[0][i]),
                                      -q.weightFormat.fracLength);
    }
}

void
QuantizedNetwork::applyProgrammingVariation(double sigma, Rng &rng)
{
    PRIME_ASSERT(sigma >= 0.0, "sigma=", sigma);
    for (QLayer &q : qlayers_)
        for (double &w : q.weights)
            w *= std::exp(rng.gaussian(0.0, sigma));
}

Tensor
QuantizedNetwork::quantizeActivations(const Tensor &x) const
{
    Tensor y = x;
    DfxFormat fmt = DfxFormat::choose(
        std::span<const double>(y.flat().data(), y.size()),
        options_.inputBits + 1);  // activations are non-negative: the
                                  // sign bit of the dfx mantissa is free,
                                  // so Pin magnitude bits remain.
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = dfxRound(y[i], fmt);
    return y;
}

Tensor
QuantizedNetwork::forwardFc(const QLayer &q, const Tensor &x)
{
    const LayerSpec &s = q.spec;
    Tensor y({s.outFeatures});
    for (int o = 0; o < s.outFeatures; ++o) {
        const double *row =
            &q.weights[static_cast<std::size_t>(o) * s.inFeatures];
        double acc = q.bias[static_cast<std::size_t>(o)];
        for (int i = 0; i < s.inFeatures; ++i)
            acc += row[i] * x[static_cast<std::size_t>(i)];
        y[static_cast<std::size_t>(o)] = acc;
    }
    return y;
}

Tensor
QuantizedNetwork::forwardConv(const QLayer &q, const Tensor &x)
{
    const LayerSpec &s = q.spec;
    Tensor y({s.outC, s.outH, s.outW});
    auto w_at = [&](int oc, int ic, int kh, int kw) {
        return q.weights[((static_cast<std::size_t>(oc) * s.inC + ic) *
                              s.kernel + kh) * s.kernel + kw];
    };
    for (int oc = 0; oc < s.outC; ++oc)
        for (int oy = 0; oy < s.outH; ++oy)
            for (int ox = 0; ox < s.outW; ++ox) {
                double acc = q.bias[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < s.inC; ++ic)
                    for (int kh = 0; kh < s.kernel; ++kh) {
                        const int iy = oy + kh - s.padding;
                        if (iy < 0 || iy >= s.inH)
                            continue;
                        for (int kw = 0; kw < s.kernel; ++kw) {
                            const int ix = ox + kw - s.padding;
                            if (ix < 0 || ix >= s.inW)
                                continue;
                            acc += w_at(oc, ic, kh, kw) * x.at3(ic, iy, ix);
                        }
                    }
                y.at3(oc, oy, ox) = acc;
            }
    return y;
}

Tensor
QuantizedNetwork::forward(const Tensor &input) const
{
    Tensor x = input;
    for (const QLayer &q : qlayers_) {
        switch (q.spec.kind) {
          case LayerKind::FullyConnected:
            x = quantizeActivations(x);
            x = forwardFc(q, x);
            break;
          case LayerKind::Convolution:
            x = quantizeActivations(x);
            x = forwardConv(q, x);
            break;
          case LayerKind::MaxPool:
            x = applyPool(q.spec, x, false);
            break;
          case LayerKind::MeanPool:
            x = applyPool(q.spec, x, true);
            break;
          case LayerKind::Sigmoid:
            x = applySigmoid(x);
            break;
          case LayerKind::Relu:
            x = applyRelu(x);
            break;
          case LayerKind::Flatten:
            x = x.reshaped({static_cast<int>(x.size())});
            break;
        }
    }
    return x;
}

int
QuantizedNetwork::predict(const Tensor &input) const
{
    return static_cast<int>(forward(input).argmax());
}

double
QuantizedNetwork::accuracy(const std::vector<Sample> &samples) const
{
    PRIME_ASSERT(!samples.empty(), "empty sample set");
    std::size_t correct = 0;
    for (const Sample &s : samples)
        if (predict(s.input) == s.label)
            ++correct;
    return static_cast<double>(correct) / samples.size();
}

} // namespace prime::nn
