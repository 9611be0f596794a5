/**
 * @file
 * Quantized inference tests (Figure 6 machinery): dynamic-fixed-point
 * accuracy behavior, and the composed PrimeSystem datapath tracking the
 * software quantization.
 */

#include <gtest/gtest.h>

#include "nn/dataset.hh"
#include "nn/quantized.hh"
#include "prime/prime_system.hh"

namespace prime::nn {
namespace {

/** A small trained MLP on an easy synthetic task, shared by tests. */
struct TrainedMlp
{
    Topology topology;
    Network net;
    std::vector<Sample> train;
    std::vector<Sample> test;

    TrainedMlp()
        : topology(parseTopology("tiny-mlp", "196-40-10", 1, 14, 14))
    {
        SyntheticMnistOptions o;
        o.seed = 5;
        SyntheticMnist gen(o);
        // 2x2 mean-pool the 28x28 digits down to 14x14 to keep the test
        // fast while preserving glyph structure.
        auto shrink = [](const Sample &s) {
            Tensor img({1, 14, 14});
            for (int y = 0; y < 14; ++y)
                for (int x = 0; x < 14; ++x)
                    img.at3(0, y, x) =
                        0.25 * (s.input.at3(0, 2 * y, 2 * x) +
                                s.input.at3(0, 2 * y + 1, 2 * x) +
                                s.input.at3(0, 2 * y, 2 * x + 1) +
                                s.input.at3(0, 2 * y + 1, 2 * x + 1));
            return Sample{img, s.label};
        };
        for (const Sample &s : gen.generate(600))
            train.push_back(shrink(s));
        for (const Sample &s : gen.generate(200))
            test.push_back(shrink(s));

        Rng rng(17);
        net = buildNetwork(topology, rng);
        Trainer::Options opt;
        opt.epochs = 6;
        opt.learningRate = 0.3;
        Trainer::train(net, train, opt);
    }
};

TrainedMlp &
trained()
{
    static TrainedMlp instance;
    return instance;
}

TEST(QuantizedNetwork, FloatBaselineLearns)
{
    EXPECT_GT(Trainer::evaluate(trained().net, trained().test), 0.9);
}

TEST(QuantizedNetwork, HighPrecisionMatchesFloat)
{
    QuantizedOptions opt;
    opt.inputBits = 8;
    opt.weightBits = 8;
    QuantizedNetwork q(trained().topology, trained().net, opt);
    const double fl = Trainer::evaluate(trained().net, trained().test);
    const double qa = q.accuracy(trained().test);
    EXPECT_NEAR(qa, fl, 0.05);
}

TEST(QuantizedNetwork, OneBitDegrades)
{
    QuantizedOptions lo;
    lo.inputBits = 1;
    lo.weightBits = 1;
    QuantizedNetwork q(trained().topology, trained().net, lo);
    QuantizedOptions hi;
    hi.inputBits = 8;
    hi.weightBits = 8;
    QuantizedNetwork qh(trained().topology, trained().net, hi);
    EXPECT_LT(q.accuracy(trained().test),
              qh.accuracy(trained().test) + 1e-9);
}

TEST(QuantizedNetwork, ThreeBitsSufficient)
{
    // The paper's Figure 6 observation: ~3-bit inputs and weights retain
    // near-full accuracy on digit classification.
    QuantizedOptions opt;
    opt.inputBits = 3;
    opt.weightBits = 3;
    QuantizedNetwork q(trained().topology, trained().net, opt);
    const double fl = Trainer::evaluate(trained().net, trained().test);
    EXPECT_GT(q.accuracy(trained().test), fl - 0.12);
}

TEST(QuantizedNetwork, PrimeSystemTracksSoftwareQuantization)
{
    QuantizedOptions sw;
    sw.inputBits = 6;
    sw.weightBits = 8;
    QuantizedNetwork qsw(trained().topology, trained().net, sw);

    // The composed datapath runs on the mapped crossbars; profile its SA
    // windows on (a slice of) the training data, as the compiler would
    // before deployment.
    core::PrimeSystem prime;
    prime.mapTopology(trained().topology);
    prime.programWeight(trained().net);
    prime.configDatapath();
    prime.calibrate(std::vector<Sample>(trained().train.begin(),
                                        trained().train.begin() + 100));

    // The hardware path adds bounded truncation error; classification
    // should agree on the vast majority of samples.
    int agree = 0, correct = 0;
    for (const Sample &s : trained().test) {
        const int hw = static_cast<int>(prime.run(s.input).argmax());
        if (qsw.predict(s.input) == hw)
            ++agree;
        if (hw == s.label)
            ++correct;
    }
    EXPECT_GT(static_cast<double>(agree) / trained().test.size(), 0.85);
    EXPECT_GT(static_cast<double>(correct) / trained().test.size(), 0.75);
}

/** Accuracy is (weakly) monotone in weight precision on average. */
class WeightBitsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WeightBitsSweep, ReasonableAccuracy)
{
    const int bits = GetParam();
    QuantizedOptions opt;
    opt.inputBits = 6;
    opt.weightBits = bits;
    QuantizedNetwork q(trained().topology, trained().net, opt);
    const double acc = q.accuracy(trained().test);
    if (bits >= 4) {
        EXPECT_GT(acc, 0.8) << "bits=" << bits;
    }
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Bits, WeightBitsSweep,
                         ::testing::Values(2, 4, 6, 8));

} // namespace
} // namespace prime::nn
