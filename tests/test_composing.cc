/**
 * @file
 * Input & synapse composing scheme tests (Section III-D): splitting,
 * SA truncation, the bounded-error property of the HH/HL/LH assembly,
 * and the crossbar-backed engine.
 */

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "reram/composing.hh"

namespace prime::reram {
namespace {

TEST(PnForInputCount, PowersOfTwo)
{
    EXPECT_EQ(pnForInputCount(1), 0);
    EXPECT_EQ(pnForInputCount(2), 1);
    EXPECT_EQ(pnForInputCount(3), 2);
    EXPECT_EQ(pnForInputCount(256), 8);
    EXPECT_EQ(pnForInputCount(257), 9);
}

TEST(SplitInput, RecomposesExactly)
{
    ComposingParams p;
    for (int v = 0; v < 64; ++v) {
        auto [hi, lo] = splitInput(v, p);
        EXPECT_EQ((hi << p.inputPhaseBits) + lo, v);
        EXPECT_LT(hi, 8);
        EXPECT_LT(lo, 8);
    }
}

TEST(SplitWeight, RecomposesWithSign)
{
    ComposingParams p;
    for (int v = -255; v <= 255; ++v) {
        auto [hi, lo] = splitWeight(v, p);
        EXPECT_EQ(hi * (1 << p.cellBits) + lo, v) << v;
        EXPECT_LE(std::abs(hi), 15);
        EXPECT_LE(std::abs(lo), 15);
        // Both parts carry the sign so each can live in the pos or neg
        // crossbar consistently.
        if (v > 0) {
            EXPECT_GE(hi, 0);
            EXPECT_GE(lo, 0);
        }
        if (v < 0) {
            EXPECT_LE(hi, 0);
            EXPECT_LE(lo, 0);
        }
    }
}

TEST(TakeHighBits, FloorSemantics)
{
    EXPECT_EQ(takeHighBits(255, 4), 15);
    EXPECT_EQ(takeHighBits(-1, 4), -1);   // floor(-1/16) = -1
    EXPECT_EQ(takeHighBits(-16, 4), -1);
    EXPECT_EQ(takeHighBits(-17, 4), -2);
    EXPECT_EQ(takeHighBits(5, 0), 5);
    EXPECT_EQ(takeHighBits(5, -2), 20);  // negative shift = scale up
}

TEST(ComposedTarget, MatchesDirectComputation)
{
    ComposingParams p;
    std::vector<int> in = {63, 0, 17, 44};
    std::vector<int> w = {255, -255, 100, -3};
    std::int64_t full = 0;
    for (int i = 0; i < 4; ++i)
        full += static_cast<std::int64_t>(in[i]) * w[i];
    // PN for 4 inputs is 2; shift = 6 + 8 + 2 - 6 = 10.
    EXPECT_EQ(composedTargetExact(in, w, p), full >> 10);
}

/** The paper's key property: composed output within a few ULP of the
 *  exact shifted result. */
TEST(ComposedApprox, BoundedError)
{
    ComposingParams p;
    Rng rng(77);
    for (int trial = 0; trial < 500; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 256));
        std::vector<int> in(n), w(n);
        for (int i = 0; i < n; ++i) {
            in[i] = static_cast<int>(rng.uniformInt(0, 63));
            w[i] = static_cast<int>(rng.uniformInt(-255, 255));
        }
        const std::int64_t target = composedTargetExact(in, w, p);
        const std::int64_t approx = composedApprox(in, w, p);
        EXPECT_LE(std::llabs(approx - target), 4);
    }
}

TEST(ComposedApprox, ExactWhenLowPartsVanish)
{
    ComposingParams p;
    // Inputs and weights that are multiples of the phase granularity
    // have empty low parts, so HH alone carries everything: the only
    // error is the shared floor.
    std::vector<int> in = {8, 16, 56, 0};
    std::vector<int> w = {16, -240, 32, 0};
    EXPECT_NEAR(static_cast<double>(composedApprox(in, w, p)),
                static_cast<double>(composedTargetExact(in, w, p)), 1.0);
}

TEST(ComposingParams, ConsistencyChecks)
{
    ComposingParams p;
    EXPECT_TRUE(p.consistent());
    p.inputPhaseBits = 2;  // 2*2 != 6
    EXPECT_FALSE(p.consistent());
}

TEST(ComposedMatrixEngine, MatchesIntegerModel)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(5);
    const int rows = 48, cols = 12;
    ComposedMatrixEngine engine(rows, cols, cp, xp);
    std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(w);

    std::vector<int> in(rows);
    for (int &v : in)
        v = static_cast<int>(rng.uniformInt(0, 63));

    auto hw = engine.mvmExact(in);
    for (int c = 0; c < cols; ++c) {
        std::vector<int> col(rows);
        for (int r = 0; r < rows; ++r)
            col[r] = w[r][c];
        EXPECT_EQ(hw[c], composedApprox(in, col, cp)) << "col " << c;
    }
}

TEST(ComposedMatrixEngine, TargetWithinBound)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(6);
    ComposedMatrixEngine engine(100, 8, cp, xp);
    std::vector<std::vector<int>> w(100, std::vector<int>(8));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(w);
    std::vector<int> in(100);
    for (int &v : in)
        v = static_cast<int>(rng.uniformInt(0, 63));

    auto hw = engine.mvmExact(in);
    auto target = engine.targetExact(in);
    for (int c = 0; c < 8; ++c)
        EXPECT_LE(std::llabs(hw[c] - target[c]), 4);
}

TEST(ComposedMatrixEngine, AnalogTracksExactWithIdealDevices)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(7);
    ComposedMatrixEngine engine(64, 6, cp, xp);
    std::vector<std::vector<int>> w(64, std::vector<int>(6));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(w);  // ideal
    std::vector<int> in(64);
    for (int &v : in)
        v = static_cast<int>(rng.uniformInt(0, 63));
    EXPECT_EQ(engine.mvmAnalog(in), engine.mvmExact(in));
}

TEST(ComposedMatrixEngine, ProgrammingVariationStaysClose)
{
    ComposingParams cp;
    CrossbarParams xp;
    xp.device.programVariation = 0.01;
    Rng rng(8);
    ComposedMatrixEngine engine(128, 4, cp, xp);
    std::vector<std::vector<int>> w(128, std::vector<int>(4));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(w, &rng);  // noisy programming
    std::vector<int> in(128);
    for (int &v : in)
        v = static_cast<int>(rng.uniformInt(0, 63));
    auto noisy = engine.mvmAnalog(in, nullptr);
    auto ideal = engine.mvmExact(in);
    for (int c = 0; c < 4; ++c)
        EXPECT_NEAR(static_cast<double>(noisy[c]),
                    static_cast<double>(ideal[c]),
                    std::max<double>(4.0,
                                     0.1 * std::abs(ideal[c]) + 4.0));
}

// ----------------------------------------------- fused exact MVM ---

/** Column @p c of a row-major weight matrix. */
std::vector<int>
weightColumn(const std::vector<std::vector<int>> &w, int c)
{
    std::vector<int> col;
    for (const std::vector<int> &row : w)
        col.push_back(row[static_cast<std::size_t>(c)]);
    return col;
}

/**
 * The engine's signed plane is pos - neg stored level for every cell,
 * and zero in the row padding past the 2*cols physical bitlines.
 */
void
expectPlaneMatchesArrays(const ComposedMatrixEngine &engine)
{
    const Crossbar &pos = engine.arrays().positive();
    const Crossbar &neg = engine.arrays().negative();
    const std::span<const std::int8_t> plane = engine.signedPlane();
    const int pitch = engine.planePitch();
    ASSERT_EQ(plane.size(),
              static_cast<std::size_t>(engine.rows()) * pitch);
    for (int r = 0; r < engine.rows(); ++r)
        for (int j = 0; j < pitch; ++j) {
            const int expected =
                j < 2 * engine.cols()
                    ? pos.storedLevel(r, j) - neg.storedLevel(r, j)
                    : 0;
            ASSERT_EQ(plane[static_cast<std::size_t>(r) * pitch + j],
                      expected)
                << "row " << r << " bitline " << j;
        }
}

/**
 * mvmExact, mvmExactBatch and (ideal-device) mvmAnalog all equal the
 * reference composedApproxShifted, column by column, for every input.
 */
void
expectEngineMatchesReference(ComposedMatrixEngine &engine,
                             const std::vector<std::vector<int>> &w,
                             const std::vector<std::vector<int>> &inputs,
                             int shift)
{
    engine.setOutputShift(shift);
    const auto batch = engine.mvmExactBatch(inputs);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto single = engine.mvmExact(inputs[i]);
        const auto analog = engine.mvmAnalog(inputs[i]);
        ASSERT_EQ(single.size(), static_cast<std::size_t>(engine.cols()));
        for (int c = 0; c < engine.cols(); ++c) {
            const std::int64_t expected = composedApproxShifted(
                inputs[i], weightColumn(w, c), engine.composing(), shift);
            ASSERT_EQ(single[c], expected)
                << "shift " << shift << " input " << i << " col " << c;
            ASSERT_EQ(batch[i][c], expected)
                << "shift " << shift << " input " << i << " col " << c;
            ASSERT_EQ(analog[c], expected)
                << "shift " << shift << " input " << i << " col " << c;
        }
    }
}

/** Random vectors plus the all-0 and all-max input corners. */
std::vector<std::vector<int>>
fusedInputs(int rows, int max_code, Rng &rng)
{
    std::vector<std::vector<int>> inputs;
    for (int k = 0; k < 3; ++k) {
        std::vector<int> in(static_cast<std::size_t>(rows));
        for (int &v : in)
            v = static_cast<int>(rng.uniformInt(0, max_code));
        inputs.push_back(std::move(in));
    }
    inputs.emplace_back(static_cast<std::size_t>(rows), 0);
    inputs.emplace_back(static_cast<std::size_t>(rows), max_code);
    return inputs;
}

/**
 * Random weights in [-max, max], or the extremes: +max on even columns
 * and -max on odd ones, so an all-max input drives every column's sums
 * to their bound in both signs (an int16 chunk overflow would show).
 */
std::vector<std::vector<int>>
fusedWeights(int rows, int cols, int max_weight, bool extremes, Rng &rng)
{
    std::vector<std::vector<int>> w(static_cast<std::size_t>(rows),
                                    std::vector<int>(
                                        static_cast<std::size_t>(cols)));
    for (auto &row : w)
        for (int c = 0; c < cols; ++c)
            row[static_cast<std::size_t>(c)] =
                extremes ? (c % 2 == 0 ? max_weight : -max_weight)
                         : static_cast<int>(
                               rng.uniformInt(-max_weight, max_weight));
    return w;
}

struct FusedShape
{
    int rows, cols;
};

class FusedExactMvm : public ::testing::TestWithParam<FusedShape>
{
};

TEST_P(FusedExactMvm, BitExactAgainstComposedApproxShifted)
{
    const FusedShape shape = GetParam();
    const ComposingParams cp;
    const CrossbarParams xp;
    Rng rng(static_cast<std::uint64_t>(shape.rows) * 1000 + shape.cols);
    const std::vector<std::vector<int>> inputs =
        fusedInputs(shape.rows, 63, rng);

    for (bool extremes : {false, true}) {
        SCOPED_TRACE(extremes ? "weights at +-255" : "random weights");
        const std::vector<std::vector<int>> w =
            fusedWeights(shape.rows, shape.cols, 255, extremes, rng);
        ComposedMatrixEngine engine(shape.rows, shape.cols, cp, xp);
        const int default_shift = engine.outputShift();
        engine.programWeights(w);
        expectPlaneMatchesArrays(engine);

        engine.calibrateOutputShift();
        const int calibrated_shift = engine.outputShift();
        // Shift 2 puts the HH, HL and LH windows below one level unit:
        // composedAssemble's digital up-shift branch.
        for (int shift : {default_shift, calibrated_shift, 2})
            expectEngineMatchesReference(engine, w, inputs, shift);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedExactMvm,
    ::testing::Values(FusedShape{1, 1}, FusedShape{25, 5},
                      FusedShape{70, 10}, FusedShape{208, 70},
                      FusedShape{256, 70}, FusedShape{64, 256},
                      FusedShape{256, 256},
                      // Taller than the default int16 chunk bound (312):
                      // several chunks widened into one result.
                      FusedShape{1024, 8}),
    [](const ::testing::TestParamInfo<FusedShape> &info) {
        return std::to_string(info.param.rows) + "x" +
               std::to_string(info.param.cols);
    });

TEST(FusedExactMvm, ChunkBoundFollowsComposingParams)
{
    const ComposingParams defaults;
    EXPECT_EQ(defaults.narrowChunkRows(), 32767 / (7 * 15));
    EXPECT_LT(defaults.narrowChunkRows(), 1024);

    // Wider phases and cells shrink the chunk; the engine must still
    // match the reference across several chunks.
    ComposingParams wide;
    wide.inputBits = 8;
    wide.inputPhaseBits = 4;
    wide.outputBits = 8;
    ASSERT_TRUE(wide.consistent());
    EXPECT_EQ(wide.narrowChunkRows(), 32767 / (15 * 15));
    const int rows = 2 * wide.narrowChunkRows() + 3;
    const int cols = 9;
    Rng rng(31);
    const std::vector<std::vector<int>> inputs = fusedInputs(rows, 255, rng);
    for (bool extremes : {false, true}) {
        const std::vector<std::vector<int>> w =
            fusedWeights(rows, cols, 255, extremes, rng);
        ComposedMatrixEngine engine(rows, cols, wide, CrossbarParams{});
        engine.programWeights(w);
        expectPlaneMatchesArrays(engine);
        expectEngineMatchesReference(engine, w, inputs,
                                     engine.outputShift());
    }
}

TEST(FusedExactMvmDeathTest, OutOfRangeInputStillAborts)
{
    const ComposingParams cp;
    ComposedMatrixEngine engine(8, 4, cp, CrossbarParams{});
    engine.programWeights(std::vector<std::vector<int>>(
        8, std::vector<int>(4, 100)));
    std::vector<int> in(8, 5);
    in[3] = 64;  // one past the 6-bit input range
    EXPECT_DEATH(engine.mvmExact(in), "out of range at row 3");
    EXPECT_DEATH(engine.mvmExactBatch({in}), "out of range at row 3");
    in[3] = -1;
    EXPECT_DEATH(engine.mvmExact(in), "out of range at row 3");
}

/** Bit-width sweep: the error bound holds for other configurations. */
struct ComposingConfig
{
    int in, phase, w, cell, out;
};

class ComposingSweep : public ::testing::TestWithParam<ComposingConfig>
{
};

TEST_P(ComposingSweep, BoundHolds)
{
    const ComposingConfig cfg = GetParam();
    ComposingParams p;
    p.inputBits = cfg.in;
    p.inputPhaseBits = cfg.phase;
    p.weightBits = cfg.w;
    p.cellBits = cfg.cell;
    p.outputBits = cfg.out;
    ASSERT_TRUE(p.consistent());

    Rng rng(cfg.in * 100 + cfg.w);
    for (int trial = 0; trial < 100; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 64));
        std::vector<int> in(n), w(n);
        for (int i = 0; i < n; ++i) {
            in[i] = static_cast<int>(
                rng.uniformInt(0, (1 << p.inputBits) - 1));
            w[i] = static_cast<int>(
                rng.uniformInt(-((1 << p.weightBits) - 1),
                               (1 << p.weightBits) - 1));
        }
        const std::int64_t target = composedTargetExact(in, w, p);
        const std::int64_t approx = composedApprox(in, w, p);
        EXPECT_LE(std::llabs(approx - target), 4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ComposingSweep,
    ::testing::Values(ComposingConfig{6, 3, 8, 4, 6},
                      ComposingConfig{4, 2, 8, 4, 6},
                      ComposingConfig{6, 3, 6, 3, 6},
                      ComposingConfig{8, 4, 8, 4, 8},
                      ComposingConfig{2, 1, 2, 1, 2},
                      ComposingConfig{4, 2, 4, 2, 4}));

TEST(Composing, OutputBits8KeepsLlTerm)
{
    // Regression guard: at Po = 8 the LL partial product must stay in
    // the assembly.  Under the full-scale shift its window hi_{Po-8}
    // is hi_0 (the header's "empty with default parameters" note), but
    // a calibrated SA window gives LL real bits -- a datapath that
    // dropped the term outright would zero out low-phase-only inputs
    // against low-cell-only weights.
    ComposingParams p;
    p.inputBits = 8;
    p.inputPhaseBits = 4;
    p.weightBits = 8;
    p.cellBits = 4;
    p.outputBits = 8;
    ASSERT_TRUE(p.consistent());

    // Direct assembly: only the LL component nonzero, window at 2^8.
    EXPECT_EQ(composedAssemble(0, 0, 0, 512, p, 8), 2);

    // Inputs below 2^(Pin/2) and weights below 2^(Pw/2) make the HH,
    // HL and LH partials vanish (high phase and high cell are zero),
    // so everything the composed path produces flows through LL.
    const int n = 32;
    Rng rng(77);
    std::vector<int> in(n), w(n);
    for (int i = 0; i < n; ++i) {
        in[i] = static_cast<int>(rng.uniformInt(1, 15));
        w[i] = static_cast<int>(rng.uniformInt(1, 15));
    }
    std::vector<std::vector<int>> rows;
    for (int v : w)
        rows.push_back({v});
    const int shift = calibratedOutputShift(rows, p);
    std::int64_t full = 0;
    for (int i = 0; i < n; ++i)
        full += static_cast<std::int64_t>(in[i]) * w[i];
    const std::int64_t target = takeHighBits(full, shift);
    const std::int64_t approx = composedApproxShifted(in, w, p, shift);
    ASSERT_GT(target, 0);
    EXPECT_GT(approx, 0) << "LL term dropped from the Po=8 assembly";
    EXPECT_LE(std::llabs(approx - target), 4);
}

} // namespace
} // namespace prime::reram
