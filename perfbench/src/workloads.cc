#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <thread>
#include <utility>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "common/telemetry/trace_session.hh"
#include "mapping/mapper.hh"
#include "memory/main_memory.hh"
#include "nn/topology.hh"
#include "outstanding_gate.hh"
#include "prime/prime_system.hh"
#include "reram/composing.hh"
#include "sample_stats.hh"
#include "serve/serving_engine.hh"
#include "sim/prime_model.hh"

namespace perfbench {
namespace {

using namespace prime;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(Clock::now() - kEpoch)
        .count();
}

/** Seconds since @p start_ns. */
double
elapsedS(double start_ns)
{
    return (nowNs() - start_ns) / 1e9;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform [0, 1) with 53 random bits. */
double
unit01(std::mt19937_64 &gen)
{
    return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/** The session bench-side spans go to (null in an untraced run). */
telemetry::TraceSession *gBenchTrace = nullptr;

/** Bench-side span around one call into a layer. */
class BenchSpan
{
  public:
    explicit BenchSpan(const char *name) : span_(gBenchTrace, name, "bench")
    {
    }

  private:
    telemetry::ScopedSpan span_;
};

// ------------------------------------------------------------ models --

struct Model
{
    nn::Topology topology;
    nvmodel::TechParams tech;
    std::vector<int> inputShape;
};

/** 64-256-256-256-256 with one FF mat per bank: four pipeline stages. */
Model
mlp4Model()
{
    Model m;
    m.topology = nn::parseTopology("mlp4", "64-256-256-256-256", 1, 8, 8);
    m.tech = nvmodel::defaultTechParams();
    m.tech.geometry.ffSubarraysPerBank = 1;
    m.tech.geometry.matsPerSubarray = 1;
    m.inputShape = {1, 8, 8};
    return m;
}

/** MlBench CNN-1 on the default geometry: one bank, one stage. */
Model
cnn1Model()
{
    Model m;
    m.topology = nn::mlBenchByName("CNN-1");
    m.tech = nvmodel::defaultTechParams();
    m.inputShape = {1, 28, 28};
    return m;
}

std::vector<nn::Tensor>
makeInputs(const Model &model, std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 gen(splitmix(seed ^ 0x1a9u));
    std::vector<nn::Tensor> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        nn::Tensor t(model.inputShape);
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = unit01(gen);
        out.push_back(std::move(t));
    }
    return out;
}

bool
bitEqual(const nn::Tensor &a, const nn::Tensor &b)
{
    return a.shape() == b.shape() && a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** FNV-1a over the output bits. */
std::uint64_t
digest(const std::vector<nn::Tensor> &outputs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const nn::Tensor &t : outputs) {
        const auto *p = reinterpret_cast<const unsigned char *>(t.data());
        for (std::size_t i = 0; i < t.size() * sizeof(double); ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Flip the lowest mantissa bit of the first value (self-test hook). */
void
corrupt(nn::Tensor &t)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, t.data(), sizeof bits);
    bits ^= 1;
    std::memcpy(t.data(), &bits, sizeof bits);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------- counters --

/** Sum a stat over a group and its bankN / stageN children. */
double
statTotal(const StatGroup &group, const std::string &name, bool use_sum)
{
    double total = 0.0;
    if (const Stat *s = group.find(name))
        total += use_sum ? s->sum() : static_cast<double>(s->count());
    for (const char *prefix : {"bank", "stage"})
        for (int i = 1; i < 64; ++i)
            if (const StatGroup *c =
                    group.findChild(prefix + std::to_string(i)))
                total += statTotal(*c, name, use_sum);
    return total;
}

/** The exact counters the program publishes, as absolute totals. */
struct Counters
{
    double commands = 0, matMvms = 0, tiledMvms = 0;
    double fetchBytes = 0, commitBytes = 0;
    double memReads = 0, memWrites = 0, memBytes = 0;
    double rowHits = 0, rowMisses = 0;
    /** Modeled channel-free horizon (ns): not a count, timing-derived. */
    double channelFreeNs = 0;

    Counters
    minus(const Counters &o) const
    {
        Counters d;
        d.commands = commands - o.commands;
        d.matMvms = matMvms - o.matMvms;
        d.tiledMvms = tiledMvms - o.tiledMvms;
        d.fetchBytes = fetchBytes - o.fetchBytes;
        d.commitBytes = commitBytes - o.commitBytes;
        d.memReads = memReads - o.memReads;
        d.memWrites = memWrites - o.memWrites;
        d.memBytes = memBytes - o.memBytes;
        d.rowHits = rowHits - o.rowHits;
        d.rowMisses = rowMisses - o.rowMisses;
        d.channelFreeNs = channelFreeNs - o.channelFreeNs;
        return d;
    }

    /** Counts that never depend on host thread timing. */
    bool
    sameExactCounts(const Counters &o, bool with_row_hits) const
    {
        bool same = commands == o.commands && matMvms == o.matMvms &&
                    tiledMvms == o.tiledMvms &&
                    fetchBytes == o.fetchBytes &&
                    commitBytes == o.commitBytes &&
                    memReads == o.memReads && memWrites == o.memWrites &&
                    memBytes == o.memBytes;
        if (with_row_hits)
            same = same && rowHits == o.rowHits && rowMisses == o.rowMisses;
        return same;
    }
};

Counters
readCounters(core::PrimeSystem &sys)
{
    Counters c;
    const StatGroup &g = sys.stats();
    c.commands = statTotal(g, "controller.commands", false);
    c.matMvms = statTotal(g, "controller.mat_mvms", false);
    c.tiledMvms = statTotal(g, "run.tiled_mvms", false);
    c.fetchBytes = statTotal(g, "controller.fetch_bytes", true);
    c.commitBytes = statTotal(g, "controller.commit_bytes", true);
    StatGroup &mem = sys.mainMemory().stats();
    c.memReads = static_cast<double>(mem.get("mem.reads").count());
    c.memWrites = static_cast<double>(mem.get("mem.writes").count());
    c.memBytes = mem.get("mem.bytes").sum();
    c.rowHits = static_cast<double>(mem.get("mem.row_hits").count());
    c.rowMisses = static_cast<double>(mem.get("mem.row_misses").count());
    c.channelFreeNs = sys.mainMemory().channelFree();
    return c;
}

/** Tracks that every measured unit of work moved the counters alike. */
class CounterCheck
{
  public:
    explicit CounterCheck(bool with_row_hits) : withRowHits_(with_row_hits)
    {
    }

    void
    observe(const Counters &delta)
    {
        if (!first_)
            first_ = delta;
        else if (!delta.sameExactCounts(*first_, withRowHits_))
            ++mismatches_;
        ++units_;
    }

    void
    report(Report &report, const std::string &what) const
    {
        report.check("counters.repeat_exactly", mismatches_ == 0,
                     std::to_string(mismatches_) + " of " +
                         std::to_string(units_) + " " + what +
                         " moved the exact counters differently");
    }

  private:
    bool withRowHits_;
    std::optional<Counters> first_;
    std::size_t units_ = 0;
    std::size_t mismatches_ = 0;
};

// ------------------------------------------------------------ set-up --

struct SetupRecord
{
    double mapMs = 0, programMs = 0, configMs = 0, firstMs = 0, totalS = 0;
    nn::Tensor firstOutput;
    double simNsPerImage = 0;
    std::vector<double> stageCosts;
};

std::unique_ptr<core::PrimeSystem>
setUpOnce(const Model &model, const nn::Network &net,
          const nn::Tensor &first, SetupRecord &rec)
{
    BenchSpan span("bench.setup");
    const double t0 = nowNs();
    auto sys = std::make_unique<core::PrimeSystem>(model.tech);
    double t = nowNs();
    {
        BenchSpan s("bench.setup.map_topology");
        sys->mapTopology(model.topology);
    }
    rec.mapMs = (nowNs() - t) / 1e6;
    t = nowNs();
    {
        BenchSpan s("bench.setup.program_weight");
        sys->programWeight(net);
    }
    rec.programMs = (nowNs() - t) / 1e6;
    t = nowNs();
    {
        BenchSpan s("bench.setup.config_datapath");
        sys->configDatapath();
    }
    rec.configMs = (nowNs() - t) / 1e6;
    t = nowNs();
    {
        BenchSpan s("bench.setup.first_inference");
        rec.firstOutput = sys->run(first);
    }
    rec.firstMs = (nowNs() - t) / 1e6;
    rec.totalS = (nowNs() - t0) / 1e9;

    BenchSpan s("bench.sim.estimate");
    rec.simNsPerImage = sys->estimatePerformance().timePerImage;
    for (Ns c : sim::PrimeModel(model.tech)
                    .stageCosts(model.topology, sys->plan()))
        rec.stageCosts.push_back(c);
    return sys;
}

/** Set the system up @p times times (one alive at a time); keep the
 *  last. */
std::unique_ptr<core::PrimeSystem>
setUpTimes(int times, const Model &model, const nn::Network &net,
           const nn::Tensor &first, std::vector<SetupRecord> &recs)
{
    std::unique_ptr<core::PrimeSystem> sys;
    for (int i = 0; i < times; ++i) {
        sys.reset();
        recs.emplace_back();
        sys = setUpOnce(model, net, first, recs.back());
    }
    return sys;
}

/**
 * setup_s and its phases are the fastest of the run's set-ups.  A
 * co-tenant of a shared host can only slow a set-up down, and a slow
 * stretch can outlast a dozen back-to-back set-ups, so they are split
 * between the start and the end of the run (see Context).  The
 * first-inference output and the modeled figures must agree across all
 * of them.
 */
void
reportSetUps(const std::vector<SetupRecord> &recs, Report &report)
{
    auto best = [&recs](double SetupRecord::*field) {
        double v = recs[0].*field;
        for (const SetupRecord &r : recs)
            v = std::min(v, r.*field);
        return v;
    };
    const std::size_t n = recs.size();
    report.add("setup_s", best(&SetupRecord::totalS), "s", n);
    report.add("setup.map_ms", best(&SetupRecord::mapMs), "ms", n);
    report.add("setup.program_ms", best(&SetupRecord::programMs), "ms", n);
    report.add("setup.config_ms", best(&SetupRecord::configMs), "ms", n);
    report.add("setup.first_inference_ms", best(&SetupRecord::firstMs),
               "ms", n);

    bool same_output = true, same_sim = true;
    for (const SetupRecord &r : recs) {
        same_output = same_output && bitEqual(r.firstOutput,
                                              recs[0].firstOutput);
        same_sim = same_sim && r.simNsPerImage == recs[0].simNsPerImage &&
                   r.stageCosts == recs[0].stageCosts;
    }
    report.check("setup.first_output_repeats", same_output,
                 "first-inference output differs between set-ups");
    report.check("sim.repeats_exactly", same_sim,
                 "modeled time differs between set-ups");

    const std::vector<double> &costs = recs[0].stageCosts;
    double total = 0.0, worst = 0.0;
    for (double c : costs) {
        total += c;
        worst = std::max(worst, c);
    }
    report.add("sim.modeled_ns_per_image", recs[0].simNsPerImage, "ns");
    report.add("sim.modeled_bottleneck_share",
               total > 0.0 ? worst / total : 1.0, "ratio");
}

// ------------------------------------------------------- the context --

/** What every workload builds before it measures. */
struct Context
{
    const Options &options;
    Report &report;
    Model model;
    std::unique_ptr<nn::Network> net;
    std::vector<nn::Tensor> pool;
    std::unique_ptr<core::PrimeSystem> sys;
    std::vector<SetupRecord> setUps;

    /** Builds the inputs and does the first half of the set-ups. */
    Context(const Options &o, Report &r, Model m, std::size_t pool_size)
        : options(o), report(r), model(std::move(m))
    {
        ThreadPool::setGlobalThreadCount(static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency())));
        Rng weight_rng(splitmix(o.seed ^ 0x77u));
        net = std::make_unique<nn::Network>(
            nn::buildNetwork(model.topology, weight_rng));
        pool = makeInputs(model, pool_size, o.seed);
        const int first_half = std::max(1, (o.setupRepeats + 1) / 2);
        sys = setUpTimes(first_half, model, *net, pool[0], setUps);
    }

    /** After the measurement: drop the system, time the other half of
     *  the set-ups and report them all. */
    void
    finishSetUps()
    {
        sys.reset();
        const int rest = options.setupRepeats -
                         static_cast<int>(setUps.size());
        (void)setUpTimes(rest, model, *net, pool[0], setUps);
        reportSetUps(setUps, report);
    }
};

/** The program's own trace, enabled only in the traced slices. */
class ProgramTrace
{
  public:
    /** Events after which a traced measurement stops early. */
    static constexpr std::size_t kEventCap = 400000;

    void
    start()
    {
        session_.enable();
        telemetry::setGlobalTrace(&session_);
    }

    void
    stop()
    {
        session_.disable();
        telemetry::setGlobalTrace(nullptr);
    }

    /** True when a traced loop should stop to bound memory. */
    bool
    full() const
    {
        return session_.enabled() && session_.eventCount() >= kEventCap;
    }

    std::size_t events() const { return session_.eventCount(); }

  private:
    telemetry::TraceSession session_;
};

/** Program trace events per image of a traced measurement. */
void
reportTraceEvents(Report &out, const ProgramTrace *trace,
                  std::uint64_t images)
{
    if (trace)
        out.add("trace.program_events_per_image",
                static_cast<double>(trace->events()) /
                    static_cast<double>(std::max<std::uint64_t>(1, images)),
                "count");
}

// -------------------------------------------------------- serve --

constexpr double kSloMs = 5.0;
constexpr double kLightRps = 300.0;
constexpr double kMidRps = 600.0;
constexpr int kClosedOutstanding = 32;

/** One served request as the client saw it. */
struct Slot
{
    double schedNs = 0.0;
    double doneNs = kMissed;
    double queueNs = 0.0;
    double execNs = 0.0;
    double batch = 0.0;
    std::uint64_t id = 0;
};

/**
 * One load phase against the engine, reduced to its samples.  The
 * per-request Slots live only while a phase (or closed round) runs, so
 * the harness's own memory does not grow with the host's throughput
 * beyond one latency sample per request.
 */
struct PhaseResult
{
    std::string name;
    /** One per sent request; kMissed when it never completed. */
    std::vector<double> latencyMs;
    /** Layer samples of the completed requests (traced runs only). */
    std::vector<double> queueMs, execMs, batch;
    std::vector<double> lateMs;
    /** Completion rates over runs of 256 completions (closed loop). */
    std::vector<double> chunkRates;
    std::size_t rejected = 0;
    std::size_t completed = 0;
    /** First send to last completion, summed over closed rounds. */
    double wallS = 0.0;
    std::uint64_t backlogEnd = 0;
    /** Most requests the client had outstanding at once. */
    int highWater = 0;

    std::size_t sent() const { return latencyMs.size(); }

    /** Fold a closed round into the phase. */
    void
    absorb(const PhaseResult &round)
    {
        auto append = [](std::vector<double> &to,
                         const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(latencyMs, round.latencyMs);
        append(queueMs, round.queueMs);
        append(execMs, round.execMs);
        append(batch, round.batch);
        append(chunkRates, round.chunkRates);
        rejected += round.rejected;
        completed += round.completed;
        wallS += round.wallS;
        backlogEnd = std::max(backlogEnd, round.backlogEnd);
        highWater = std::max(highWater, round.highWater);
    }
};

/**
 * Completion rates over consecutive runs of kChunk completions: chunk
 * j's rate is kChunk / (time of completion (j+1)*kChunk - time of
 * completion j*kChunk).  Counting completions in fixed time windows
 * instead would quantize the rate to whole 16-request batches.
 */
std::vector<double>
chunkRates(std::vector<double> done)
{
    constexpr std::size_t kChunk = 256;
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    for (std::size_t i = kChunk; i < done.size(); i += kChunk)
        rates.push_back(static_cast<double>(kChunk) /
                        ((done[i] - done[i - kChunk]) / 1e9));
    return rates;
}

/** Client of a running ServingEngine with bit-exact output checking. */
class ServeClient
{
  public:
    ServeClient(serve::ServingEngine &engine,
                const std::vector<nn::Tensor> &pool,
                const std::vector<nn::Tensor> &refs)
        : engine_(engine), pool_(pool), refs_(refs)
    {
    }

    /** Open loop: @p n Poisson arrivals at @p rate req/s. */
    PhaseResult
    openLoop(const std::string &name, double rate, std::size_t n,
             std::uint64_t seed, bool layer_samples)
    {
        PhaseResult phase;
        phase.name = name;
        std::deque<Slot> slots;
        OutstandingGate inflight(INT_MAX);
        std::mt19937_64 gen(splitmix(seed));
        double sched = nowNs() + 1e6;
        std::size_t cursor = gen() % pool_.size();
        for (std::size_t i = 0; i < n; ++i) {
            sched += -std::log1p(-unit01(gen)) / rate * 1e9;
            std::this_thread::sleep_until(
                kEpoch + std::chrono::nanoseconds(
                             static_cast<std::int64_t>(sched)));
            Slot &slot = slots.emplace_back();
            slot.schedNs = sched;
            phase.lateMs.push_back((nowNs() - sched) / 1e6);
            inflight.acquire();
            submit(slot, cursor++ % pool_.size(), inflight, phase);
        }
        phase.backlogEnd = engine_.accepted() - engine_.completed();
        inflight.waitIdle();
        finish(slots, phase, layer_samples);
        return phase;
    }

    /** Closed loop: @p outstanding requests in flight for @p seconds. */
    PhaseResult
    closedLoop(const std::string &name, int outstanding, double seconds,
               std::uint64_t seed, const ProgramTrace *trace,
               bool layer_samples)
    {
        PhaseResult phase;
        phase.name = name;
        std::deque<Slot> slots;
        OutstandingGate gate(outstanding);
        std::size_t cursor = splitmix(seed) % pool_.size();
        const double start = nowNs();
        const double end = start + seconds * 1e9;
        while (nowNs() < end && !(trace && trace->full())) {
            gate.acquire();
            Slot &slot = slots.emplace_back();
            slot.schedNs = nowNs();
            submit(slot, cursor++ % pool_.size(), gate, phase);
        }
        phase.backlogEnd = engine_.accepted() - engine_.completed();
        gate.waitIdle();
        finish(slots, phase, layer_samples);
        std::vector<double> done;
        double last = start;
        for (const Slot &slot : slots)
            if (std::isfinite(slot.doneNs)) {
                done.push_back(slot.doneNs);
                last = std::max(last, slot.doneNs);
            }
        phase.chunkRates = chunkRates(std::move(done));
        phase.wallS = (last - start) / 1e9;
        return phase;
    }

    std::uint64_t mismatches() const
    {
        return mismatches_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Submit one request.  The client counts it outstanding from before
     * trySubmit until its completion callback (or the refusal), apart
     * from the gate's own count, so phase.highWater checks the bound the
     * gate is meant to keep.
     */
    void
    submit(Slot &slot, std::size_t index, OutstandingGate &gate,
           PhaseResult &phase)
    {
        const int now =
            outstanding_.fetch_add(1, std::memory_order_acq_rel) + 1;
        phase.highWater = std::max(phase.highWater, now);
        Slot *s = &slot;
        const nn::Tensor *ref = &refs_[index];
        std::atomic<std::uint64_t> *bad = &mismatches_;
        std::atomic<int> *live = &outstanding_;
        std::optional<std::uint64_t> id = engine_.trySubmit(
            pool_[index], [s, ref, bad, live, &gate](serve::Response &&r) {
                s->doneNs = nowNs();
                s->queueNs = r.queueWaitNs;
                s->execNs = r.e2eNs - r.queueWaitNs;
                s->batch = static_cast<double>(r.batchSize);
                if (!bitEqual(r.output, *ref))
                    bad->fetch_add(1, std::memory_order_relaxed);
                live->fetch_sub(1, std::memory_order_acq_rel);
                gate.release();
            });
        if (id) {
            slot.id = *id;
        } else {
            ++phase.rejected;
            outstanding_.fetch_sub(1, std::memory_order_acq_rel);
            gate.release();
        }
    }

    /** Reduce the finished requests to samples; one span per request. */
    void
    finish(const std::deque<Slot> &slots, PhaseResult &phase,
           bool layer_samples)
    {
        const bool spans = gBenchTrace && gBenchTrace->enabled();
        // Bench epoch -> trace epoch, sampled once.
        const double offset =
            spans ? static_cast<double>(gBenchTrace->now()) - nowNs() : 0.0;
        phase.latencyMs.reserve(slots.size());
        for (const Slot &s : slots) {
            phase.latencyMs.push_back((s.doneNs - s.schedNs) / 1e6);
            if (!std::isfinite(s.doneNs))
                continue;
            ++phase.completed;
            if (layer_samples) {
                phase.queueMs.push_back(s.queueNs / 1e6);
                phase.execMs.push_back(s.execNs / 1e6);
                phase.batch.push_back(s.batch);
            }
            if (spans)
                gBenchTrace->completeSpan(
                    "serve.request id=" + std::to_string(s.id), "bench",
                    static_cast<std::int64_t>(s.schedNs + offset),
                    static_cast<std::int64_t>(s.doneNs + offset));
        }
    }

    serve::ServingEngine &engine_;
    const std::vector<nn::Tensor> &pool_;
    const std::vector<nn::Tensor> &refs_;
    std::atomic<std::uint64_t> mismatches_{0};
    std::atomic<int> outstanding_{0};
};

void
reportOpenPhase(Report &report, const PhaseResult &p)
{
    std::vector<double> lat = p.latencyMs;
    std::sort(lat.begin(), lat.end());
    const std::size_t n = lat.size();
    report.add(p.name + ".p50_ms", quantileSorted(lat, 0.50), "ms", n);
    if (n >= minSamplesFor(0.99))
        report.add(p.name + ".p99_ms", quantileSorted(lat, 0.99), "ms", n);
    report.add(p.name + ".slo_frac", sloFraction(lat, kSloMs), "ratio", n);
    report.add("loadgen." + p.name + ".late_ms.p99",
               quantile(p.lateMs, 0.99), "ms", p.lateMs.size());
}

/** The src/serve layer as its Responses and counters describe it. */
void
reportServeLayer(Report &report, const PhaseResult &p)
{
    const std::string pre = "serve." + p.name + ".";
    report.add(pre + "queue_wait_ms.p50", median(p.queueMs), "ms",
               p.queueMs.size());
    report.add(pre + "exec_ms.p50", median(p.execMs), "ms", p.execMs.size());
    report.add(pre + "batch_size.mean", mean(p.batch), "count",
               p.batch.size());
    report.add(pre + "backlog_end", static_cast<double>(p.backlogEnd),
               "count");
    report.add(pre + "rejected_frac",
               p.sent() == 0 ? 0.0
                             : static_cast<double>(p.rejected) /
                                   static_cast<double>(p.sent()),
               "ratio", p.sent());
}

/**
 * The three serve phases, each engine with default ServingOptions.
 * Open phases send max(rate * share * seconds, minPhaseRequests)
 * requests through one engine.  The closed phase takes 3/4 of the
 * seconds, split into rounds on fresh engines, so no one engine's
 * thread placement sets its capacity.
 */
void
measureServe(Context &ctx, const std::vector<nn::Tensor> &refs,
             double seconds, std::uint64_t seed, Report &out,
             const ProgramTrace *trace, bool layer_metrics)
{
    constexpr int kClosedRounds = 6;
    auto count = [&](double rate, double share) {
        return std::max(ctx.options.minPhaseRequests,
                        static_cast<std::size_t>(rate * share * seconds));
    };
    std::vector<PhaseResult> phases;
    std::uint64_t mismatches = 0;
    {
        serve::ServingEngine engine(*ctx.sys, serve::ServingOptions{});
        engine.start();
        ServeClient client(engine, ctx.pool, refs);
        {
            BenchSpan span("bench.serve.light");
            phases.push_back(client.openLoop("light", kLightRps,
                                             count(kLightRps, 0.15),
                                             seed + 1, layer_metrics));
        }
        {
            BenchSpan span("bench.serve.mid");
            phases.push_back(client.openLoop("mid", kMidRps,
                                             count(kMidRps, 0.1), seed + 2,
                                             layer_metrics));
        }
        engine.stop();
        mismatches += client.mismatches();
    }

    PhaseResult &closed = phases.emplace_back();
    closed.name = "closed";
    for (int r = 0; r < kClosedRounds && !(trace && trace->full()); ++r) {
        BenchSpan span("bench.serve.closed");
        serve::ServingEngine engine(*ctx.sys, serve::ServingOptions{});
        engine.start();
        ServeClient client(engine, ctx.pool, refs);
        closed.absorb(client.closedLoop(
            "closed", kClosedOutstanding, 0.75 * seconds / kClosedRounds,
            seed + 3 + static_cast<std::uint64_t>(r), trace,
            layer_metrics));
        engine.stop();
        mismatches += client.mismatches();
    }

    std::uint64_t sent = 0, lost = 0;
    for (const PhaseResult &p : phases) {
        sent += p.sent();
        lost += p.sent() - p.completed;
    }
    out.countOperations(sent, lost);
    out.check("serve.outputs_bit_equal_run", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(sent) +
                  " responses differ from run()");
    out.check("serve.closed_outstanding_bound",
              closed.highWater <= kClosedOutstanding,
              "client counted " + std::to_string(closed.highWater) +
                  " requests outstanding at once");

    reportOpenPhase(out, phases[0]);
    reportOpenPhase(out, phases[1]);
    out.add("serve.closed.outstanding_max",
            static_cast<double>(closed.highWater), "count");
    out.add("closed.rps",
            closed.wallS > 0 ? closed.completed / closed.wallS : 0.0,
            "req/s", closed.completed);
    out.add("closed.p50_ms", median(closed.latencyMs), "ms", closed.sent());
    out.add("images_per_s", sustainedRate(closed.chunkRates), "img/s",
            closed.chunkRates.size());
    if (layer_metrics)
        for (const PhaseResult &p : phases)
            reportServeLayer(out, p);
    reportTraceEvents(out, trace, sent);
}

// ------------------------------------------------ direct-call loops --

/** Sustained rate over back-to-back pipelined runBatch calls. */
void
measureBatch(Context &ctx, const std::vector<std::vector<nn::Tensor>> &batches,
             const std::vector<std::vector<nn::Tensor>> &refs,
             double seconds, Report &out, const ProgramTrace *trace)
{
    core::PrimeSystem &sys = *ctx.sys;
    core::PrimeSystem::RunBatchOptions pipelined;
    CounterCheck counters(false);
    std::vector<double> rates, call_ms;
    std::uint64_t images = 0, mismatched = 0;
    const double start = nowNs();
    for (std::size_t call = 0;
         elapsedS(start) < seconds && !(trace && trace->full()); ++call) {
        const std::size_t b = call % batches.size();
        const Counters before = readCounters(sys);
        const double t0 = nowNs();
        std::vector<nn::Tensor> outs;
        {
            BenchSpan span("bench.prime.run_batch");
            outs = sys.runBatch(std::span<const nn::Tensor>(batches[b]),
                                pipelined);
        }
        const double dt = (nowNs() - t0) / 1e9;
        const Counters d = readCounters(sys).minus(before);
        counters.observe(d);
        rates.push_back(static_cast<double>(outs.size()) / dt);
        call_ms.push_back(dt * 1e3);
        images += outs.size();
        for (std::size_t i = 0; i < outs.size(); ++i)
            mismatched += bitEqual(outs[i], refs[b][i]) ? 0 : 1;
    }
    out.countOperations(images, mismatched);
    out.check("batch.pipelined_equals_sequential", mismatched == 0,
              std::to_string(mismatched) + " of " + std::to_string(images) +
                  " pipelined outputs differ from pipeline=false");
    counters.report(out, "runBatch calls");
    out.add("images_per_s", sustainedRate(rates), "img/s", rates.size());
    out.add("closed.p50_ms", median(call_ms), "ms", call_ms.size());
    reportTraceEvents(out, trace, images);
}

/** Sustained rate over blocks of back-to-back run() calls. */
void
measureSeq(Context &ctx, const std::vector<nn::Tensor> &refs,
           double seconds, Report &out, const ProgramTrace *trace)
{
    constexpr std::size_t kBlock = 16;
    core::PrimeSystem &sys = *ctx.sys;
    CounterCheck counters(true);
    std::vector<double> rates, latency;
    std::uint64_t images = 0, mismatched = 0;
    std::size_t cursor = 0;
    const double start = nowNs();
    while (elapsedS(start) < seconds && !(trace && trace->full())) {
        const Counters before = readCounters(sys);
        const double t0 = nowNs();
        for (std::size_t k = 0; k < kBlock; ++k) {
            const std::size_t i = cursor++ % ctx.pool.size();
            const double c0 = nowNs();
            nn::Tensor y;
            {
                BenchSpan span("bench.prime.run");
                y = sys.run(ctx.pool[i]);
            }
            latency.push_back((nowNs() - c0) / 1e6);
            mismatched += bitEqual(y, refs[i]) ? 0 : 1;
        }
        const double dt = (nowNs() - t0) / 1e9;
        const Counters d = readCounters(sys).minus(before);
        counters.observe(d);
        rates.push_back(static_cast<double>(kBlock) / dt);
        images += kBlock;
    }
    out.countOperations(images, mismatched);
    out.check("seq.outputs_repeat", mismatched == 0,
              std::to_string(mismatched) + " of " + std::to_string(images) +
                  " outputs differ from the digest pass");
    counters.report(out, "blocks");
    out.add("images_per_s", sustainedRate(rates), "img/s", rates.size());
    out.add("closed.p50_ms", median(latency), "ms", latency.size());
    reportTraceEvents(out, trace, images);
}

// ------------------------------------------------------ layer probes --

/** Median ns per call of @p fn, timed in blocks for @p budget_s. */
template <typename Fn>
std::pair<double, std::size_t>
timePerCall(double budget_s, std::size_t calls_per_block, Fn &&fn)
{
    std::vector<double> per_call;
    const double start = nowNs();
    do {
        const double t0 = nowNs();
        for (std::size_t i = 0; i < calls_per_block; ++i)
            fn(i);
        per_call.push_back((nowNs() - t0) /
                           static_cast<double>(calls_per_block));
    } while (elapsedS(start) < budget_s || per_call.size() < 5);
    return {median(per_call), per_call.size()};
}

/** A tile shape and how many MVMs of it one image runs. */
struct TileShape
{
    int rows = 0, cols = 0;
    double perImage = 0.0;
};

std::vector<TileShape>
tileShapes(const mapping::MappingPlan &plan)
{
    std::map<std::pair<int, int>, double> shapes;
    for (const mapping::LayerMapping &lm : plan.layers)
        for (const mapping::MatTile &t : lm.tiles)
            if (t.replica == 0)
                shapes[{t.rowsUsed, t.colsUsed}] +=
                    static_cast<double>(lm.info.positions);
    std::vector<TileShape> out;
    for (const auto &[shape, n] : shapes)
        out.push_back(TileShape{shape.first, shape.second, n});
    return out;
}

/** Fetch/Commit transfers one image issues: (bytes, is_write, count). */
struct Transfer
{
    std::size_t bytes = 0;
    bool write = false;
    double perImage = 0.0;
};

std::vector<Transfer>
transfers(const mapping::MappingPlan &plan, int mat_cols)
{
    std::vector<Transfer> out;
    for (const mapping::LayerMapping &lm : plan.layers) {
        std::map<int, int> tiles_per_bank;
        for (const mapping::MatTile &t : lm.tiles)
            if (t.replica == 0)
                ++tiles_per_bank[t.bank];
        const double n = static_cast<double>(lm.info.positions);
        for (const auto &bank_tiles : tiles_per_bank) {
            out.push_back(Transfer{static_cast<std::size_t>(lm.info.rows),
                                   false, n});
            out.push_back(Transfer{static_cast<std::size_t>(
                                       bank_tiles.second * 2 * mat_cols),
                                   true, n});
        }
    }
    return out;
}

/** src/prime: stages, dispatch, pipeline attribution, exact counts. */
void
probePrime(Context &ctx, Report &out, double budget_s, double &stage_sum_us)
{
    core::PrimeSystem &sys = *ctx.sys;
    const std::size_t n_stages = sys.stages().size();
    const std::size_t n_img = std::min<std::size_t>(16, ctx.pool.size());

    // Stage inputs: x[s][i] feeds stage s for image i.
    std::vector<std::vector<nn::Tensor>> x(n_stages + 1);
    x[0].assign(ctx.pool.begin(), ctx.pool.begin() + n_img);
    for (std::size_t s = 0; s < n_stages; ++s)
        for (const nn::Tensor &in : x[s])
            x[s + 1].push_back(
                sys.runStage(in, s, sys.stageContext(s)));

    stage_sum_us = 0.0;
    double stage_max_us = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        auto [ns, blocks] = timePerCall(budget_s, n_img, [&](std::size_t i) {
            BenchSpan span("bench.prime.run_stage");
            (void)sys.runStage(x[s][i], s, sys.stageContext(s));
        });
        out.add("prime.stage" + std::to_string(s) + ".us", ns / 1e3, "us",
                blocks);
        stage_sum_us += ns / 1e3;
        stage_max_us = std::max(stage_max_us, ns / 1e3);
    }
    out.add("prime.stage_max.us", stage_max_us, "us");
    out.add("prime.stage_sum.us", stage_sum_us, "us");

    core::PrimeSystem::RunBatchOptions pipelined;
    auto [one_ns, one_blocks] =
        timePerCall(budget_s, n_img, [&](std::size_t i) {
            BenchSpan span("bench.prime.run_batch");
            (void)sys.runBatch(std::span<const nn::Tensor>(&ctx.pool[i], 1),
                               pipelined);
        });
    out.add("pipeline.dispatch_overhead_us", one_ns / 1e3 - stage_sum_us,
            "us", one_blocks);
    auto [b16_ns, b16_blocks] = timePerCall(budget_s, 1, [&](std::size_t) {
        BenchSpan span("bench.prime.run_batch");
        (void)sys.runBatch(std::span<const nn::Tensor>(ctx.pool.data(), 16),
                           pipelined);
    });
    out.add("pipeline.batch16_ms", b16_ns / 1e6, "ms", b16_blocks);

    // Pipeline attribution over full-occupancy batches (multi-stage
    // plans only; a one-stage plan has no pipeline and no stalls).
    double busy = 0, worst = 0, up = 0, down = 0, idle = 0, wall = 0;
    double waits = 0, samples = 0;
    // Modeled memory makespan per image: pipelined batches where the
    // plan pipelines (host-timing dependent, hence the spread), else
    // the sequential passes below (exact).
    std::vector<double> makespans;
    if (n_stages > 1 && ctx.pool.size() >= 256) {
        sys.stats().resetAll();
        for (int rep = 0; rep < 4; ++rep) {
            const double horizon = sys.mainMemory().channelFree();
            BenchSpan span("bench.prime.run_batch");
            (void)sys.runBatch(
                std::span<const nn::Tensor>(ctx.pool.data(), 256),
                pipelined);
            makespans.push_back(
                (sys.mainMemory().channelFree() - horizon) / 256.0);
        }
        const StatGroup &g = sys.stats();
        const StatGroup *attr = g.findChild("pipeline.attribution");
        auto sum = [](const StatGroup *grp, const std::string &name) {
            const Stat *s = grp ? grp->find(name) : nullptr;
            return s ? s->sum() : 0.0;
        };
        auto count = [&g](const std::string &name) {
            const Stat *s = g.find(name);
            return s ? static_cast<double>(s->count()) : 0.0;
        };
        for (std::size_t s = 0; s < n_stages; ++s) {
            const std::string st = "stage" + std::to_string(s);
            const double b = sum(attr, st + ".busy_ns");
            busy += b;
            worst = std::max(worst, b);
            up += sum(attr, st + ".stall_upstream_ns");
            down += sum(attr, st + ".stall_downstream_ns");
            idle += sum(attr, st + ".idle_ns");
            wall += sum(attr, st + ".wall_ns");
        }
        waits = count("pipeline.push_waits") + count("pipeline.pop_waits");
        samples = count("pipeline.samples");
    }
    out.add("pipeline.bottleneck_share", busy > 0 ? worst / busy : 1.0,
            "ratio");
    out.add("pipeline.stall_up_frac", wall > 0 ? up / wall : 0.0, "ratio");
    out.add("pipeline.stall_down_frac", wall > 0 ? down / wall : 0.0,
            "ratio");
    out.add("pipeline.idle_frac", wall > 0 ? idle / wall : 0.0, "ratio");
    out.add("pipeline.ring_waits_per_image",
            samples > 0 ? waits / samples : 0.0, "count");

    // Exact per-image counts from identical sequential passes, which
    // must agree to the unit.
    constexpr std::size_t kImages = 4;
    Counters per_pass[4];
    bool passes_agree = true;
    for (Counters &pass : per_pass) {
        const Counters before = readCounters(sys);
        for (std::size_t i = 0; i < kImages; ++i) {
            BenchSpan span("bench.prime.run");
            (void)sys.run(ctx.pool[i]);
        }
        pass = readCounters(sys).minus(before);
        passes_agree =
            passes_agree && pass.sameExactCounts(per_pass[0], true);
        if (n_stages == 1)
            makespans.push_back(pass.channelFreeNs /
                                static_cast<double>(kImages));
    }
    out.check("counters.sequential_passes_agree", passes_agree,
              "identical sequential passes moved the counters "
              "differently");
    const double makespan = median(makespans);
    out.add("mem.modeled_makespan_ns_per_image", makespan, "ns",
            makespans.size());
    out.add("mem.modeled_makespan_spread",
            (*std::max_element(makespans.begin(), makespans.end()) -
             *std::min_element(makespans.begin(), makespans.end())) /
                makespan,
            "ratio", makespans.size());
    const Counters &c = per_pass[0];
    const double n = static_cast<double>(kImages);
    out.add("controller.commands_per_image", c.commands / n, "count");
    out.add("controller.mat_mvms_per_image", c.matMvms / n, "count");
    out.add("run.tiled_mvms_per_image", c.tiledMvms / n, "count");
    out.add("controller.fetch_bytes_per_image", c.fetchBytes / n, "B");
    out.add("controller.commit_bytes_per_image", c.commitBytes / n, "B");
    out.add("mem.requests_per_image", (c.memReads + c.memWrites) / n,
            "count");
    out.add("mem.bytes_per_image", c.memBytes / n, "B");
    out.add("mem.row_hit_rate",
            c.rowHits + c.rowMisses > 0
                ? c.rowHits / (c.rowHits + c.rowMisses)
                : 0.0,
            "ratio");

    double planned = 0.0;
    for (const TileShape &t : tileShapes(sys.plan()))
        planned += t.perImage;
    out.check("plan.mat_mvms_match_counter", planned == c.matMvms / n,
              "plan predicts " + std::to_string(planned) +
                  " mat MVMs per image, controller.mat_mvms counted " +
                  std::to_string(c.matMvms / n));
}

/** src/reram: the composed kernel at every tile shape of both models,
 *  and batched at the pipeline's handoff batch of 4. */
void
probeReram(Context &ctx, Report &out, double budget_s, double stage_sum_us)
{
    const reram::ComposingParams cp;
    reram::CrossbarParams xp;
    xp.rows = ctx.model.tech.geometry.matRows;
    xp.cols = ctx.model.tech.geometry.matCols;
    std::mt19937_64 gen(splitmix(ctx.options.seed ^ 0x5eu));
    auto engine_for = [&](int rows, int cols) {
        auto e = std::make_unique<reram::ComposedMatrixEngine>(rows, cols,
                                                               cp, xp);
        std::vector<std::vector<int>> w(
            static_cast<std::size_t>(rows),
            std::vector<int>(static_cast<std::size_t>(cols)));
        for (auto &row : w)
            for (int &v : row)
                v = static_cast<int>(gen() % 511) - 255;
        e->programWeights(w);
        return e;
    };
    auto inputs_for = [&](int rows, std::size_t n) {
        std::vector<std::vector<int>> in(
            n, std::vector<int>(static_cast<std::size_t>(rows)));
        for (auto &v : in)
            for (int &x : v)
                x = static_cast<int>(gen() % 64);
        return in;
    };

    // Every tile shape of both benchmark models is timed on every
    // workload, so each workload reports the same kernel figures; the
    // kernel share weighs the ones this workload's plan runs.
    std::map<std::pair<int, int>, double> ns_of;
    for (const Model &m : {mlp4Model(), cnn1Model()}) {
        const mapping::Mapper mapper(m.tech.geometry, {});
        for (const TileShape &t : tileShapes(mapper.map(m.topology))) {
            if (ns_of.count({t.rows, t.cols}))
                continue;
            auto engine = engine_for(t.rows, t.cols);
            const auto in = inputs_for(t.rows, 16);
            BenchSpan span("bench.reram.mvm_exact_loop");
            auto [ns, blocks] =
                timePerCall(budget_s, 16, [&](std::size_t i) {
                    auto r = engine->mvmExact(in[i]);
                    asm volatile("" : : "r"(r.data()) : "memory");
                });
            ns_of[{t.rows, t.cols}] = ns;
            out.add("reram.mvm_exact_ns." + std::to_string(t.rows) + "x" +
                        std::to_string(t.cols),
                    ns, "ns", blocks);
        }
    }
    double kernel_ns = 0.0;
    for (const TileShape &t : tileShapes(ctx.sys->plan()))
        kernel_ns += t.perImage * ns_of.at({t.rows, t.cols});
    out.add("reram.kernel_share",
            stage_sum_us > 0 ? kernel_ns / (stage_sum_us * 1e3) : 0.0,
            "ratio");

    {
        auto engine = engine_for(256, 256);
        const auto in = inputs_for(256, 4);
        BenchSpan span("bench.reram.mvm_exact_batch_loop");
        auto [ns, blocks] = timePerCall(budget_s, 1, [&](std::size_t) {
            auto r = engine->mvmExactBatch(in);
            asm volatile("" : : "r"(r.data()) : "memory");
        });
        out.add("reram.mvm_batch_ns_per_item.256x256", ns / 4, "ns", blocks);
    }
}

/** src/memory: scheduleBytes at the workload's Fetch/Commit mix, on a
 *  MainMemory of its own so the system's timing state is untouched. */
void
probeMemory(Context &ctx, Report &out, double budget_s)
{
    memory::MainMemory mem(ctx.model.tech);
    const std::vector<Transfer> mix =
        transfers(ctx.sys->plan(), ctx.model.tech.geometry.matCols);
    // ns per call of each transfer kind, weighted by how often one
    // image issues it.
    double calls = 0.0, weighted_ns = 0.0;
    std::size_t blocks = 0;
    for (const Transfer &t : mix) {
        BenchSpan span("bench.mem.schedule_bytes_loop");
        auto [ns, b] = timePerCall(
            budget_s / static_cast<double>(mix.size()), 32,
            [&](std::size_t) {
                auto r = mem.scheduleBytes(t.write ? 0x100000 : 0, t.bytes,
                                           t.write);
                asm volatile("" : : "r"(r.data()) : "memory");
            });
        calls += t.perImage;
        weighted_ns += t.perImage * ns;
        blocks += b;
    }
    out.add("mem.schedule_bytes_ns", weighted_ns / calls, "ns", blocks);
    out.add("mem.schedule_bytes_calls_per_image", calls, "count");
}

/** src/sim: host cost of the analytic estimate. */
void
probeSim(Context &ctx, Report &out, double budget_s)
{
    const sim::PrimeModel model(ctx.model.tech);
    BenchSpan span("bench.sim.estimate_loop");
    auto [ns, blocks] = timePerCall(budget_s, 4, [&](std::size_t) {
        auto perf = ctx.sys->estimatePerformance();
        auto costs = model.stageCosts(ctx.model.topology, ctx.sys->plan());
        asm volatile("" : : "r"(&perf), "r"(costs.data()) : "memory");
    });
    out.add("sim.estimate_us", ns / 1e3, "us", blocks);
}

void
probeLayers(Context &ctx, Report &out)
{
    BenchSpan span("bench.layer_probes");
    constexpr double kBudget = 0.25;
    double stage_sum_us = 0.0;
    probePrime(ctx, out, kBudget, stage_sum_us);
    probeReram(ctx, out, kBudget, stage_sum_us);
    probeMemory(ctx, out, kBudget);
    probeSim(ctx, out, kBudget);
}

// -------------------------------------------------------- workloads --

/**
 * Untraced: the measurement over options.seconds.  Traced: four slices
 * of a quarter of the seconds each, tracing off, on, on, off.  The
 * order cancels a steady drift of host speed, and bench-side spans are
 * recorded only in the traced slices.  trace.overhead.<metric> is the
 * mean of the traced slices over the mean of the untraced ones, minus
 * one.  The first traced slice reports the workload's layer metrics
 * (its program trace bounded at ProgramTrace::kEventCap events); the
 * layer probes follow.
 */
template <typename Measure>
void
runMeasured(Context &ctx, Measure &&measure,
            const std::vector<std::string> &overhead_metrics)
{
    if (!ctx.options.trace) {
        measure(ctx.options.seconds, ctx.report, nullptr);
        return;
    }
    const double slice_s = ctx.options.seconds / 4;
    telemetry::TraceSession *bench_trace = gBenchTrace;
    Report untraced[2], traced_extra;
    const Report *traced[2] = {&ctx.report, &traced_extra};
    auto slice = [&](Report &out, const char *tag, bool traced_slice) {
        gBenchTrace = traced_slice ? bench_trace : nullptr;
        std::optional<ProgramTrace> trace;
        if (traced_slice)
            trace.emplace().start();
        measure(slice_s, out, trace ? &*trace : nullptr);
        if (trace)
            trace->stop();
        gBenchTrace = bench_trace;
        if (&out == &ctx.report)
            return;
        for (const Check &c : out.checks())
            ctx.report.check(c.name + "." + tag, c.ok, c.detail);
        ctx.report.countOperations(out.attempted(), out.failed());
    };
    slice(untraced[0], "untraced_slice1", false);
    slice(ctx.report, "", true);
    slice(traced_extra, "traced_slice2", true);
    slice(untraced[1], "untraced_slice2", false);

    for (const std::string &name : overhead_metrics) {
        auto mean_of = [&name](const Report *a, const Report *b) {
            const Metric *x = a->find(name), *y = b->find(name);
            return x && y ? (x->value + y->value) / 2 : 0.0;
        };
        const double off = mean_of(&untraced[0], &untraced[1]);
        const double on = mean_of(traced[0], traced[1]);
        if (off != 0.0)
            ctx.report.add("trace.overhead." + name, on / off - 1.0,
                           "ratio", 4);
    }
    probeLayers(ctx, ctx.report);
}

void
runServe(const Options &options, Report &report)
{
    Context ctx(options, report, mlp4Model(), 256);
    std::vector<nn::Tensor> refs;
    for (const nn::Tensor &x : ctx.pool)
        refs.push_back(ctx.sys->run(x));
    if (options.injectMismatch)
        corrupt(refs[0]);
    // Warm the pipeline path the engine drives.
    (void)ctx.sys->runBatch(std::span<const nn::Tensor>(ctx.pool.data(), 16));

    runMeasured(
        ctx,
        [&](double seconds, Report &out, const ProgramTrace *trace) {
            measureServe(ctx, refs, seconds, options.seed, out, trace,
                         trace != nullptr);
        },
        {"images_per_s", "closed.p50_ms", "light.p50_ms", "mid.p50_ms"});
    ctx.finishSetUps();
}

void
runBatchMlp4(const Options &options, Report &report)
{
    constexpr std::size_t kBatch = 256;
    Context ctx(options, report, mlp4Model(), 2 * kBatch);
    std::vector<std::vector<nn::Tensor>> batches(2), refs(2);
    core::PrimeSystem::RunBatchOptions sequential;
    sequential.pipeline = false;
    for (std::size_t b = 0; b < 2; ++b) {
        batches[b].assign(ctx.pool.begin() + b * kBatch,
                          ctx.pool.begin() + (b + 1) * kBatch);
        refs[b] = ctx.sys->runBatch(std::span<const nn::Tensor>(batches[b]),
                                    sequential);
    }
    if (options.injectMismatch)
        corrupt(refs[0][0]);
    // Warm the pipelined path once before timing.
    (void)ctx.sys->runBatch(std::span<const nn::Tensor>(batches[0]));

    runMeasured(
        ctx,
        [&](double seconds, Report &out, const ProgramTrace *trace) {
            measureBatch(ctx, batches, refs, seconds, out, trace);
        },
        {"images_per_s", "closed.p50_ms"});
    ctx.finishSetUps();
}

void
runSeqCnn1(const Options &options, Report &report)
{
    Context ctx(options, report, cnn1Model(), 64);
    // The digest pass: reference outputs for every pool image.  Every
    // later run() of the same image must reproduce them bit for bit.
    std::vector<nn::Tensor> refs;
    for (const nn::Tensor &x : ctx.pool)
        refs.push_back(ctx.sys->run(x));
    report.note("output_digest", hex(digest(refs)));
    if (options.injectMismatch)
        corrupt(refs[0]);

    runMeasured(
        ctx,
        [&](double seconds, Report &out, const ProgramTrace *trace) {
            measureSeq(ctx, refs, seconds, out, trace);
        },
        {"images_per_s", "closed.p50_ms"});
    ctx.finishSetUps();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve", "batch-mlp4",
                                                   "seq-cnn1"};
    return names;
}

bool
runWorkload(const Options &options, Report &report)
{
    telemetry::TraceSession bench_trace;
    if (options.trace) {
        bench_trace.enable();
        gBenchTrace = &bench_trace;
    }
    bool known = true;
    if (options.workload == "serve")
        runServe(options, report);
    else if (options.workload == "batch-mlp4")
        runBatchMlp4(options, report);
    else if (options.workload == "seq-cnn1")
        runSeqCnn1(options, report);
    else
        known = false;
    gBenchTrace = nullptr;
    if (!known)
        return false;

    report.add("peak_rss_mb", peakRssMb(), "MB");
    if (options.trace) {
        bench_trace.disable();
        report.add("trace.bench_spans",
                   static_cast<double>(bench_trace.eventCount()), "count");
        if (!options.traceOut.empty()) {
            std::ofstream os(options.traceOut);
            bench_trace.writeChromeTrace(os);
            report.check("trace.written", static_cast<bool>(os),
                         "could not write " + options.traceOut);
            report.note("chrome_trace", options.traceOut);
        }
    }
    return true;
}

} // namespace perfbench
