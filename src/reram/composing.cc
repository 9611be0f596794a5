#include "reram/composing.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "reram/simd_clones.hh"

namespace prime::reram {

int
pnForInputCount(int n)
{
    int pn = 0;
    while ((1 << pn) < n)
        ++pn;
    return pn;
}

std::pair<int, int>
splitInput(int value, const ComposingParams &p)
{
    PRIME_ASSERT(value >= 0 && value < (1 << p.inputBits),
                 "input ", value, " out of ", p.inputBits, "-bit range");
    const int mask = (1 << p.inputPhaseBits) - 1;
    return {value >> p.inputPhaseBits, value & mask};
}

std::pair<int, int>
splitWeight(int value, const ComposingParams &p)
{
    const int max_mag = (1 << p.weightBits) - 1;
    PRIME_ASSERT(value >= -max_mag && value <= max_mag,
                 "weight ", value, " out of ", p.weightBits, "-bit range");
    const int sign = value < 0 ? -1 : 1;
    const int mag = value < 0 ? -value : value;
    const int mask = (1 << p.cellBits) - 1;
    return {sign * (mag >> p.cellBits), sign * (mag & mask)};
}

std::int64_t
takeHighBits(std::int64_t x, int shift)
{
    if (shift <= 0)
        return x << -shift;
    // Arithmetic shift == floor division for negative values on all
    // implementations we target; use explicit floor division for clarity.
    const std::int64_t div = std::int64_t{1} << shift;
    std::int64_t q = x / div;
    if (x % div != 0 && x < 0)
        --q;
    return q;
}

std::int64_t
composedTargetExact(std::span<const int> inputs, std::span<const int> weights,
                    const ComposingParams &p)
{
    PRIME_ASSERT(inputs.size() == weights.size(), "size mismatch");
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    std::int64_t full = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        full += static_cast<std::int64_t>(inputs[i]) * weights[i];
    const int pn = pnForInputCount(static_cast<int>(inputs.size()));
    return takeHighBits(full, p.inputBits + p.weightBits + pn - p.outputBits);
}

int
defaultOutputShift(const ComposingParams &p, int input_count)
{
    return p.inputBits + p.weightBits + pnForInputCount(input_count) -
           p.outputBits;
}

/** SA register saturation: signed (Po+1)-bit window. */
static std::int64_t
saturateToSa(std::int64_t code, int output_bits)
{
    const std::int64_t hi = (std::int64_t{1} << output_bits) - 1;
    const std::int64_t lo = -(std::int64_t{1} << output_bits);
    return std::clamp(code, lo, hi);
}

/**
 * Assemble the target from the four component dot products under a given
 * total shift.  Rfull = 2^((Pin+Pw)/2) HH + 2^(Pw/2) HL + 2^(Pin/2) LH
 * + LL, so component c's own shift is total_shift - m_c; a negative
 * component shift means the digital adder scales the (saturated) raw
 * code up instead.
 */
/**
 * Round-to-nearest variant of takeHighBits: the SA reference ladder is
 * offset by half an LSB, the standard sensing trick that centers the
 * conversion error instead of biasing it low.
 */
static std::int64_t
takeHighBitsRounded(std::int64_t x, int shift)
{
    if (shift <= 0)
        return x << -shift;
    return takeHighBits(x + (std::int64_t{1} << (shift - 1)), shift);
}

std::int64_t
composedAssemble(std::int64_t hh, std::int64_t hl, std::int64_t lh,
                 std::int64_t ll, const ComposingParams &p, int total_shift)
{
    struct Part
    {
        std::int64_t value;
        int magnitude;
    };
    const Part parts[4] = {
        {hh, (p.inputBits + p.weightBits) / 2},
        {hl, p.weightBits / 2},
        {lh, p.inputBits / 2},
        {ll, 0},
    };
    std::int64_t acc = 0;
    for (const Part &part : parts) {
        const int shift = total_shift - part.magnitude;
        if (shift >= 0) {
            // The SA window sits `shift` bits up; codes below it vanish
            // (half-LSB offset centers the error).
            acc += saturateToSa(takeHighBitsRounded(part.value, shift),
                                p.outputBits);
        } else {
            // Window finer than one level unit is not physical; the SA
            // digitizes at natural resolution and the precision-control
            // adder applies the up-shift digitally.
            acc += saturateToSa(part.value, p.outputBits) << -shift;
        }
    }
    return acc;
}

std::int64_t
composedApproxShifted(std::span<const int> inputs,
                      std::span<const int> weights,
                      const ComposingParams &p, int total_shift)
{
    PRIME_ASSERT(inputs.size() == weights.size(), "size mismatch");
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    std::int64_t hh = 0, hl = 0, lh = 0, ll = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto [ih, il] = splitInput(inputs[i], p);
        auto [wh, wl] = splitWeight(weights[i], p);
        hh += static_cast<std::int64_t>(ih) * wh;
        hl += static_cast<std::int64_t>(il) * wh;
        lh += static_cast<std::int64_t>(ih) * wl;
        ll += static_cast<std::int64_t>(il) * wl;
    }
    return composedAssemble(hh, hl, lh, ll, p, total_shift);
}

std::int64_t
composedApprox(std::span<const int> inputs, std::span<const int> weights,
               const ComposingParams &p)
{
    return composedApproxShifted(
        inputs, weights, p,
        defaultOutputShift(p, static_cast<int>(inputs.size())));
}

int
calibratedOutputShift(const std::vector<std::vector<int>> &weights,
                      const ComposingParams &p)
{
    PRIME_ASSERT(!weights.empty(), "empty weights");
    const int cols = static_cast<int>(weights[0].size());
    const std::int64_t max_in = (std::int64_t{1} << p.inputBits) - 1;
    std::int64_t worst = 1;
    for (int c = 0; c < cols; ++c) {
        std::int64_t bound = 0;
        for (const auto &row : weights)
            bound += max_in * std::abs(static_cast<std::int64_t>(row[c]));
        worst = std::max(worst, bound);
    }
    int bits = 0;
    while ((std::int64_t{1} << bits) <= worst)
        ++bits;
    return std::max(0, bits - p.outputBits);
}

ComposedMatrixEngine::ComposedMatrixEngine(int rows, int cols,
                                           const ComposingParams &p,
                                           const CrossbarParams &array_params)
    : rows_(rows), cols_(cols), pn_(pnForInputCount(rows)), composing_(p),
      outputShift_(defaultOutputShift(p, rows)),
      arrays_([&] {
          CrossbarParams cp = array_params;
          cp.rows = rows;
          cp.cols = cols * 2;  // adjacent bitlines: high/low weight halves
          cp.cellBits = p.cellBits;
          cp.inputBits = p.inputPhaseBits;
          return cp;
      }()),
      pitch_((cols * 2 + 63) / 64 * 64),
      signedPlane_(static_cast<std::size_t>(rows) * pitch_, 0)
{
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    PRIME_ASSERT(rows > 0 && cols > 0, "bad engine geometry");
    PRIME_ASSERT(p.cellBits <= 7, "cellBits=", p.cellBits,
                 " exceeds the int8 signed plane");
}

void
ComposedMatrixEngine::programWeights(
    const std::vector<std::vector<int>> &weights, Rng *rng)
{
    PRIME_ASSERT(static_cast<int>(weights.size()) == rows_,
                 "weights rows=", weights.size());
    std::vector<std::vector<int>> physical(
        rows_, std::vector<int>(cols_ * 2, 0));
    for (int r = 0; r < rows_; ++r) {
        PRIME_ASSERT(static_cast<int>(weights[r].size()) == cols_,
                     "weights cols=", weights[r].size());
        for (int c = 0; c < cols_; ++c) {
            auto [wh, wl] = splitWeight(weights[r][c], composing_);
            physical[r][2 * c] = wh;
            physical[r][2 * c + 1] = wl;
        }
    }
    arrays_.programSigned(physical, rng);
    // programSigned stores max(w, 0) / max(-w, 0): the signed plane is
    // the physical matrix itself.
    std::int8_t *plane = signedPlane_.data();
    for (const std::vector<int> &row : physical) {
        std::copy(row.begin(), row.end(), plane);
        plane += pitch_;
    }
    logicalWeights_ = weights;
}

void
ComposedMatrixEngine::calibrateOutputShift()
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    outputShift_ = calibratedOutputShift(logicalWeights_, composing_);
}

namespace {

/**
 * One row chunk of the fused exact MVM: both input phases in a single
 * pass over the signed plane, hi(in_r) * plane[r][j] into the high-phase
 * sums and lo(in_r) * plane[r][j] into the low-phase sums.  The chunk
 * accumulates in int16 (@p narrow, high | low halves of 2 * @p width)
 * -- the caller bounds @p rows by ComposingParams::narrowChunkRows --
 * and is then widened into the running int64 sums @p wide.
 */
PRIME_MVM_INT_CLONES void
accumulateSignedChunk(std::int16_t *__restrict narrow,
                      std::int64_t *__restrict wide,
                      const std::int8_t *__restrict plane,
                      const int *__restrict inputs, int rows, int width,
                      int phase_bits)
{
    const int mask = (1 << phase_bits) - 1;
    std::int16_t *acc_high = narrow;
    std::int16_t *acc_low = narrow + width;
    std::fill_n(narrow, 2 * width, 0);
    for (int r = 0; r < rows; ++r) {
        const int in = inputs[r];
        if (in == 0)
            continue;
        const std::int16_t hi = static_cast<std::int16_t>(in >> phase_bits);
        const std::int16_t lo = static_cast<std::int16_t>(in & mask);
        const std::int8_t *row = plane + static_cast<std::size_t>(r) * width;
        for (int j = 0; j < width; ++j) {
            acc_high[j] = static_cast<std::int16_t>(acc_high[j] + hi * row[j]);
            acc_low[j] = static_cast<std::int16_t>(acc_low[j] + lo * row[j]);
        }
    }
    for (int j = 0; j < 2 * width; ++j)
        wide[j] += narrow[j];
}

/** SA conversion constants of one composing component (see assemble). */
struct SaWindow
{
    int down;           ///< window sits this many bits up
    int up;             ///< digital up-shift of a sub-unit window
    std::int64_t half;  ///< half-LSB reference offset
};

/**
 * out[c] = sum over the four components of their saturated, shifted SA
 * codes; @p high / @p low hold HH, LH / HL, LL at bitlines 2c, 2c + 1.
 */
PRIME_MVM_INT_CLONES void
assembleColumns(const std::int64_t *__restrict high,
                const std::int64_t *__restrict low,
                std::int64_t *__restrict out, int cols,
                const SaWindow *__restrict windows, std::int64_t sa_lo,
                std::int64_t sa_hi)
{
    const SaWindow hh = windows[0], hl = windows[1], lh = windows[2],
                   ll = windows[3];
    auto convert = [&](std::int64_t x, const SaWindow &k) {
        return std::clamp((x + k.half) >> k.down, sa_lo, sa_hi) << k.up;
    };
    for (int c = 0; c < cols; ++c)
        out[c] = convert(high[2 * c], hh) + convert(low[2 * c], hl) +
                 convert(high[2 * c + 1], lh) + convert(low[2 * c + 1], ll);
}

/** Per-thread buffers of the composed MVMs, grown once and reused. */
struct ComposeScratch
{
    std::vector<std::int16_t> narrow;  ///< high | low int16 chunk sums
    std::vector<std::int64_t> wide;    ///< high | low component sums
};

ComposeScratch &
composeScratch(std::size_t width)
{
    thread_local ComposeScratch scratch;
    if (scratch.wide.size() < 2 * width) {
        scratch.narrow.resize(2 * width);
        scratch.wide.resize(2 * width);
    }
    return scratch;
}

} // namespace

void
ComposedMatrixEngine::mvmExactInto(std::span<const int> inputs,
                                   std::int64_t *out) const
{
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    const int in_limit = 1 << composing_.inputBits;
    for (int r = 0; r < rows_; ++r)
        PRIME_ASSERT(inputs[r] >= 0 && inputs[r] < in_limit, "input code ",
                     inputs[r], " out of range at row ", r);

    const std::size_t pitch = static_cast<std::size_t>(pitch_);
    ComposeScratch &scratch = composeScratch(pitch);
    std::int64_t *high = scratch.wide.data();
    std::int64_t *low = high + pitch;
    std::fill_n(high, 2 * pitch, 0);
    const int chunk = composing_.narrowChunkRows();
    for (int r0 = 0; r0 < rows_; r0 += chunk)
        accumulateSignedChunk(scratch.narrow.data(), high,
                              signedPlane_.data() + r0 * pitch,
                              inputs.data() + r0, std::min(chunk, rows_ - r0),
                              pitch_, composing_.inputPhaseBits);
    assemble(high, low, out);
}

void
ComposedMatrixEngine::assemble(const std::int64_t *high,
                               const std::int64_t *low,
                               std::int64_t *out) const
{
    // composedAssemble with the per-component constants hoisted: each
    // component's SA window either sits `down` bits up (rounded to
    // nearest by the half-LSB offset) or is finer than one level unit,
    // in which case the adder shifts the saturated code `up`.
    auto window = [&](int magnitude) {
        const int shift = outputShift_ - magnitude;
        SaWindow k{std::max(shift, 0), std::max(-shift, 0), 0};
        if (k.down > 0)
            k.half = std::int64_t{1} << (k.down - 1);
        return k;
    };
    const ComposingParams &p = composing_;
    const SaWindow windows[4] = {
        window((p.inputBits + p.weightBits) / 2),  // HH
        window(p.weightBits / 2),                  // HL
        window(p.inputBits / 2),                   // LH
        window(0),                                 // LL
    };
    assembleColumns(high, low, out, cols_, windows,
                    -(std::int64_t{1} << p.outputBits),
                    (std::int64_t{1} << p.outputBits) - 1);
}

std::vector<std::int64_t>
ComposedMatrixEngine::mvmExact(std::span<const int> inputs) const
{
    std::vector<std::int64_t> out(static_cast<std::size_t>(cols_));
    mvmExactInto(inputs, out.data());
    return out;
}

std::vector<std::int64_t>
ComposedMatrixEngine::mvmAnalog(std::span<const int> inputs, Rng *rng) const
{
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    std::vector<int> high(rows_), low(rows_);
    for (int r = 0; r < rows_; ++r) {
        auto [ih, il] = splitInput(inputs[r], composing_);
        high[r] = ih;
        low[r] = il;
    }
    std::vector<double> pass_h = arrays_.mvmAnalog(high, rng);
    std::vector<double> pass_l = arrays_.mvmAnalog(low, rng);
    // The SA digitizes each component to the nearest level-unit code
    // before the precision-control adder truncates and accumulates.
    const std::size_t width = static_cast<std::size_t>(cols_) * 2;
    ComposeScratch &scratch = composeScratch(width);
    std::int64_t *codes_h = scratch.wide.data();
    std::int64_t *codes_l = codes_h + width;
    for (std::size_t j = 0; j < width; ++j) {
        codes_h[j] = std::llround(pass_h[j]);
        codes_l[j] = std::llround(pass_l[j]);
    }
    std::vector<std::int64_t> out(static_cast<std::size_t>(cols_));
    assemble(codes_h, codes_l, out.data());
    return out;
}

std::vector<std::vector<std::int64_t>>
ComposedMatrixEngine::mvmExactBatch(
    const std::vector<std::vector<int>> &inputs) const
{
    std::vector<std::vector<std::int64_t>> out;
    out.reserve(inputs.size());
    for (const std::vector<int> &sample : inputs) {
        std::vector<std::int64_t> &row =
            out.emplace_back(static_cast<std::size_t>(cols_));
        mvmExactInto(sample, row.data());
    }
    return out;
}

std::vector<std::vector<std::int64_t>>
ComposedMatrixEngine::mvmAnalogBatch(
    const std::vector<std::vector<int>> &inputs, Rng *rng) const
{
    // Sample-major, high-phase-then-low-phase: the same draw order as
    // sequential mvmAnalog calls, keeping batched results bit-exact.
    std::vector<std::vector<std::int64_t>> out;
    out.reserve(inputs.size());
    for (const std::vector<int> &sample : inputs)
        out.push_back(mvmAnalog(sample, rng));
    return out;
}

std::vector<std::int64_t>
ComposedMatrixEngine::mvmFull(std::span<const int> inputs) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    std::vector<std::int64_t> out(cols_, 0);
    for (int c = 0; c < cols_; ++c)
        for (int r = 0; r < rows_; ++r)
            out[c] += static_cast<std::int64_t>(inputs[r]) *
                      logicalWeights_[r][c];
    return out;
}

std::vector<std::int64_t>
ComposedMatrixEngine::targetExact(std::span<const int> inputs) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    std::vector<std::int64_t> out(cols_);
    for (int c = 0; c < cols_; ++c) {
        std::int64_t full = 0;
        for (int r = 0; r < rows_; ++r)
            full += static_cast<std::int64_t>(inputs[r]) *
                    logicalWeights_[r][c];
        out[c] = takeHighBits(full, outputShift_);
    }
    return out;
}

} // namespace prime::reram
