/**
 * @file
 * End-to-end PrimeSystem tests: the Figure 7 API flow on trained
 * networks, split-merge fidelity, morphing/release, and accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/fixed_point.hh"
#include "nn/dataset.hh"
#include "prime/prime_system.hh"
#include "reram/composing.hh"

namespace prime::core {
namespace {

/** Shared trained MLP whose first layer splits across row tiles. */
struct TrainedSetup
{
    nn::Topology topology;
    nn::Network net;
    std::vector<nn::Sample> train;
    std::vector<nn::Sample> test;

    TrainedSetup()
        // 784 inputs -> first FC layer spans 4 row tiles (784 > 256).
        : topology(nn::parseTopology("mlp-784-64-10", "784-64-10",
                                     1, 28, 28))
    {
        nn::SyntheticMnistOptions o;
        o.seed = 21;
        nn::SyntheticMnist gen(o);
        train = gen.generate(600);
        test = gen.generate(200);
        Rng rng(33);
        net = nn::buildNetwork(topology, rng);
        nn::Trainer::Options opt;
        opt.epochs = 5;
        opt.learningRate = 0.3;
        nn::Trainer::train(net, train, opt);
    }
};

TrainedSetup &
setup()
{
    static TrainedSetup instance;
    return instance;
}

TEST(PrimeSystem, ApiOrderEnforced)
{
    PrimeSystem prime;
    nn::Tensor input({1, 28, 28});
    EXPECT_DEATH(prime.run(input), "programWeight");
    prime.mapTopology(setup().topology);
    EXPECT_DEATH(prime.run(input), "programWeight");
    prime.programWeight(setup().net);
    EXPECT_DEATH(prime.run(input), "configDatapath");
}

TEST(PrimeSystem, MappingReservesAndMorphs)
{
    PrimeSystem prime;
    const std::size_t before = prime.availableFfMemoryBytes();
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    // Morphed mats no longer serve as memory...
    EXPECT_LT(prime.availableFfMemoryBytes(), before);
    // ...and their resident data was migrated (counted in stats).
    EXPECT_GT(prime.stats().get("morph.mats_to_compute").count(), 0u);
    // Release restores the full FF memory capacity.
    prime.release();
    EXPECT_EQ(prime.availableFfMemoryBytes(), before);
    EXPECT_EQ(prime.stats().get("morph.mats_to_memory").count(),
              prime.stats().get("morph.mats_to_compute").count());
}

TEST(PrimeSystem, ConfigCommandsCoverEveryTileMat)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    // 4 config commands per replica-0 tile mat (Table I left half).
    long long tiles = 0;
    for (const auto &m : prime.plan().layers)
        tiles += m.matsPerReplica();
    EXPECT_EQ(prime.configCommands().size(),
              static_cast<std::size_t>(4 * tiles));
    prime.configDatapath();
    EXPECT_GE(prime.controller().commandCount(),
              prime.configCommands().size());
}

TEST(PrimeSystem, EndToEndClassificationMatchesFloat)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(setup().train.begin(),
                                            setup().train.begin() + 50));

    const double float_acc =
        nn::Trainer::evaluate(setup().net, setup().test);
    std::size_t correct = 0, agree = 0;
    for (const nn::Sample &s : setup().test) {
        const int hw = static_cast<int>(prime.run(s.input).argmax());
        if (hw == s.label)
            ++correct;
        if (hw == setup().net.predict(s.input))
            ++agree;
    }
    const double hw_acc =
        static_cast<double>(correct) / setup().test.size();
    // 6-bit inputs / 8-bit composed weights keep classification close
    // to the float baseline (the Section III-D claim).
    EXPECT_GT(hw_acc, float_acc - 0.1);
    EXPECT_GT(static_cast<double>(agree) / setup().test.size(), 0.8);
}

TEST(PrimeSystem, PostProcIsSoftmax)
{
    PrimeSystem prime;
    nn::Tensor logits = nn::Tensor::vector1d({1.0, 2.0, 3.0});
    auto p = prime.postProc(logits);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0.0;
    for (double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(p[2], p[1]);
}

TEST(PrimeSystem, SplitMergeMatchesWholeLayerMvm)
{
    // The 784-row layer spans 4 row tiles; the merged result must be
    // close to a direct quantized MVM over the whole layer.
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(setup().train.begin(),
                                            setup().train.begin() + 50));

    const nn::Sample &s = setup().test.front();
    nn::Tensor hw_logits = prime.run(s.input);
    nn::Tensor float_logits = setup().net.forward(s.input);
    ASSERT_EQ(hw_logits.size(), float_logits.size());
    // Logits agree to quantization tolerance: each of the 4 row tiles
    // contributes up to ~2 codes of composing/rounding error at the
    // 6-bit SA window, on top of the 6-bit activation quantization.
    for (std::size_t i = 0; i < hw_logits.size(); ++i)
        EXPECT_NEAR(hw_logits[i], float_logits[i],
                    0.25 * std::max(1.0, std::fabs(float_logits[i])) +
                        1.0)
            << "logit " << i;
}

/** SA-window shift currently configured on @p t's mat. */
int
tileShift(PrimeSystem &prime, const mapping::MatTile &t)
{
    const int mats_per_subarray =
        nvmodel::defaultTechParams().geometry.matsPerSubarray;
    return prime.controller(t.bank)
        .mat(t.subarray * mats_per_subarray + t.mat)
        .engine()
        .outputShift();
}

/**
 * Reference output of a PrimeSystem holding one weighted layer, built
 * from the composing primitives alone: a layer-wide power-of-two input
 * scale with Pin-bit codes, DfxFormat weight codes, one
 * composedApproxShifted per replica-0 tile at that mat's configured SA
 * shift, partial sums merged in global tile order, then the rounded
 * bias.
 */
nn::Tensor
composingReference(PrimeSystem &prime, const nn::Network &net,
                   const nn::Tensor &input)
{
    const nvmodel::Geometry g = nvmodel::defaultTechParams().geometry;
    const reram::ComposingParams cp;
    const mapping::LayerMapping &m = prime.plan().layers.at(0);
    const std::size_t li = static_cast<std::size_t>(m.info.layerIndex);
    const nn::LayerSpec &s = prime.topology().layers[li];
    const std::vector<double> &w = *net.layer(li).weights();
    std::vector<double> bias = *net.layer(li).bias();
    dfxRoundVector(bias, cp.weightBits);

    double max_abs = 0.0;
    for (double v : input.flat())
        max_abs = std::max(max_abs, std::fabs(v));
    int exp = 0;
    std::frexp(max_abs, &exp);
    const int in_frac = cp.inputBits - exp;
    const int max_code = (1 << cp.inputBits) - 1;
    auto code_of = [&](double v) {
        return static_cast<int>(std::clamp(
            std::nearbyint(std::ldexp(std::max(v, 0.0), in_frac)), 0.0,
            static_cast<double>(max_code)));
    };

    const DfxFormat fmt = DfxFormat::choose(w, cp.weightBits, 0.01);
    const int max_w = (1 << cp.weightBits) - 1;
    auto wcode = [&](double v) {
        return static_cast<int>(std::clamp(
            std::nearbyint(std::ldexp(v, fmt.fracLength)),
            static_cast<double>(-max_w), static_cast<double>(max_w)));
    };
    // Weight code of MVM row r (input / receptive-field element) and
    // column c (output feature / map).
    auto weight_at = [&](int r, int c) {
        return wcode(w[static_cast<std::size_t>(c) * m.info.rows + r]);
    };

    auto mvm = [&](const std::vector<int> &codes) {
        std::vector<double> out(static_cast<std::size_t>(m.info.cols), 0.0);
        for (const mapping::MatTile &t : m.tiles) {
            if (t.replica != 0)
                continue;
            const int shift = tileShift(prime, t);
            std::vector<int> seg(static_cast<std::size_t>(t.rowsUsed));
            for (int r = 0; r < t.rowsUsed; ++r)
                seg[static_cast<std::size_t>(r)] = codes[static_cast<
                    std::size_t>(t.rowTile * g.matRows + r)];
            for (int c = 0; c < t.colsUsed; ++c) {
                const int col = t.colTile * g.matCols + c;
                std::vector<int> wcol(static_cast<std::size_t>(t.rowsUsed));
                for (int r = 0; r < t.rowsUsed; ++r)
                    wcol[static_cast<std::size_t>(r)] =
                        weight_at(t.rowTile * g.matRows + r, col);
                out[static_cast<std::size_t>(col)] += std::ldexp(
                    static_cast<double>(
                        reram::composedApproxShifted(seg, wcol, cp, shift)),
                    shift - in_frac - fmt.fracLength);
            }
        }
        return out;
    };

    if (s.kind == nn::LayerKind::FullyConnected) {
        std::vector<int> codes;
        for (double v : input.flat())
            codes.push_back(code_of(v));
        const std::vector<double> out = mvm(codes);
        nn::Tensor y({s.outFeatures});
        for (int o = 0; o < s.outFeatures; ++o)
            y[static_cast<std::size_t>(o)] =
                out[static_cast<std::size_t>(o)] +
                bias[static_cast<std::size_t>(o)];
        return y;
    }
    nn::Tensor y({s.outC, s.outH, s.outW});
    for (int oy = 0; oy < s.outH; ++oy)
        for (int ox = 0; ox < s.outW; ++ox) {
            std::vector<int> codes;
            for (int ic = 0; ic < s.inC; ++ic)
                for (int kh = 0; kh < s.kernel; ++kh)
                    for (int kw = 0; kw < s.kernel; ++kw) {
                        const int iy = oy + kh - s.padding;
                        const int ix = ox + kw - s.padding;
                        const bool pad = iy < 0 || iy >= s.inH || ix < 0 ||
                                         ix >= s.inW;
                        codes.push_back(pad ? 0
                                            : code_of(input.at3(ic, iy, ix)));
                    }
            const std::vector<double> out = mvm(codes);
            for (int oc = 0; oc < s.outC; ++oc)
                y.at3(oc, oy, ox) = out[static_cast<std::size_t>(oc)] +
                                    bias[static_cast<std::size_t>(oc)];
        }
    return y;
}

TEST(PrimeSystem, RunMatchesComposingReference)
{
    // One FC layer taller than a mat (300 inputs: two row tiles) and
    // one padded conv layer whose 288-element receptive field also
    // spans two row tiles.
    nn::LayerSpec conv;
    conv.kind = nn::LayerKind::Convolution;
    conv.inC = 32;
    conv.inH = conv.inW = 6;
    conv.outC = 8;
    conv.outH = conv.outW = 6;
    conv.kernel = 3;
    conv.padding = 1;
    nn::Topology conv_topo;
    conv_topo.name = "conv3x3-pad";
    conv_topo.layers.push_back(conv);
    const nn::Topology topologies[] = {
        nn::parseTopology("fc-300-20", "300-20", 1, 1, 300), conv_topo};

    Rng rng(2024);
    for (const nn::Topology &topo : topologies) {
        SCOPED_TRACE(topo.name);
        const nn::Network net = nn::buildNetwork(topo, rng);
        const nn::LayerSpec &first = topo.layers.front();
        // Magnitudes halve from one image row to the next, so most conv
        // receptive fields peak in a lower binade than the whole layer.
        auto random_input = [&] {
            nn::Tensor x({first.inC, first.inH, first.inW});
            for (std::size_t i = 0; i < x.size(); ++i)
                x[i] = std::ldexp(rng.uniform(),
                                  -static_cast<int>(i / first.inW %
                                                    first.inH));
            return x;
        };
        std::vector<nn::Sample> samples;
        for (int i = 0; i < 6; ++i)
            samples.push_back(nn::Sample{random_input(), 0});

        PrimeSystem prime;
        const mapping::MappingPlan &plan = prime.mapTopology(topo);
        ASSERT_EQ(plan.layers.size(), 1u);
        ASSERT_EQ(plan.layers[0].rowTiles, 2);
        prime.programWeight(net);
        prime.configDatapath();

        auto expect_match = [&] {
            for (const nn::Sample &s : samples) {
                const nn::Tensor got = prime.run(s.input);
                const nn::Tensor want = composingReference(prime, net,
                                                           s.input);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i)
                    EXPECT_EQ(got[i], want[i]) << "output " << i;
            }
        };
        auto shifts = [&] {
            std::vector<int> v;
            for (const mapping::MatTile &t : plan.layers[0].tiles)
                if (t.replica == 0)
                    v.push_back(tileShift(prime, t));
            return v;
        };
        // Worst-case SA windows from programWeight, then the narrower
        // windows calibrate() profiles.
        expect_match();
        const std::vector<int> static_shifts = shifts();
        prime.calibrate({samples.begin(), samples.begin() + 3});
        EXPECT_NE(shifts(), static_shifts);
        expect_match();
    }
}

TEST(PrimeSystem, PerformanceAccountingAvailable)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    auto perf = prime.estimatePerformance();
    EXPECT_GT(perf.latency, 0.0);
    EXPECT_GT(perf.energy.total(), 0.0);
    EXPECT_GT(prime.configurationTime(), 0.0);
    EXPECT_GT(prime.configurationEnergy(), 0.0);
}

TEST(PrimeSystem, RunStatsAccumulate)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.run(setup().test.front().input);
    EXPECT_EQ(prime.stats().get("run.inferences").count(), 1u);
    EXPECT_GT(prime.stats().get("run.tiled_mvms").count(), 0u);
    EXPECT_GT(prime.buffer().trafficBytes(), 0u);
}

TEST(PrimeSystem, ProgramWeightRejectsMismatchedNetwork)
{
    // Multi-bank plans execute functionally now, but programWeight
    // still validates the trained network against the mapped topology
    // before touching any bank.
    PrimeSystem prime;
    prime.mapTopology(nn::mlBenchByName("VGG-D"));
    nn::Network dummy;  // empty: layer count cannot match VGG-D
    EXPECT_THROW(prime.programWeight(dummy), std::runtime_error);
    EXPECT_EQ(prime.stats().get("morph.mats_to_compute").count(), 0u);
}

TEST(PrimeSystem, CnnEndToEnd)
{
    // A small CNN exercises the conv lowering path on hardware.
    nn::Topology topo =
        nn::parseTopology("cnn-tiny", "conv5x5-pool-720-10", 1, 28, 28);
    nn::SyntheticMnistOptions o;
    o.seed = 55;
    nn::SyntheticMnist gen(o);
    auto train = gen.generate(300);
    auto test = gen.generate(60);
    Rng rng(5);
    nn::Network net = nn::buildNetwork(topo, rng);
    nn::Trainer::Options opt;
    opt.epochs = 4;
    opt.learningRate = 0.1;
    nn::Trainer::train(net, train, opt);
    const double float_acc = nn::Trainer::evaluate(net, test);

    PrimeSystem prime;
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(train.begin(),
                                            train.begin() + 20));
    std::size_t correct = 0;
    for (const nn::Sample &s : test)
        if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
            ++correct;
    EXPECT_GT(static_cast<double>(correct) / test.size(),
              float_acc - 0.15);
}

} // namespace
} // namespace prime::core
