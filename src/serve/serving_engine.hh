/**
 * @file
 * ServingEngine: the request-driven front end that turns PrimeSystem
 * from a batch tool into a long-running inference server (the ROADMAP
 * "heavy traffic" north star; ARAS-style adaptive batching on a ReRAM
 * accelerator).
 *
 * Data path:
 *
 *   client threads --tryPush--> MpscRing<Request> (bounded ingress)
 *        |                          |
 *        | false = shed load        | single consumer
 *        v                          v
 *     rejected               scheduler thread: dynamic batching
 *                            (take what is queued, up to maxBatch;
 *                             never wait for more)
 *                                   |
 *                                   v  PrimeSystem::submitBatch
 *                            the system's persistent pipeline
 *                            executor (prime/pipeline.hh): its
 *                            ingress (at most maxBatch samples from
 *                            this engine), then one worker per stage
 *                                   |
 *                                   v
 *                            completions, on the last-stage worker
 *
 * The scheduler never waits for a batch to finish, so consecutive
 * batches overlap in the stages the way the paper's inter-bank
 * pipeline streams images.  It does wait while the executor's ingress
 * already holds a batch's worth of samples (RunBatchOptions::maxQueued,
 * maxBatch by default): meanwhile the backlog builds in the request
 * ring, where it coalesces into the next batch, and once that ring is
 * full trySubmit sheds.
 *
 * Contracts:
 *  - Admission control: trySubmit never blocks.  A full ingress ring
 *    (or an engine whose stop() began) rejects the request explicitly
 *    -- the caller sees false, serving.rejected counts it, and no
 *    callback ever fires for it.  So does a tensor whose element count
 *    is not the mapped model's input size: request data never reaches
 *    an assert.  Each reason also has its own counter
 *    (serving.rejected.full / .stopping / .shape; the three sum to
 *    serving.rejected).  Accepted requests are completed exactly
 *    once, even across stop() (the scheduler drains the ring and
 *    flushes its partial batch before exiting).
 *  - Batching policy: the scheduler opens a batch at the first popped
 *    request, takes every queued co-rider up to maxBatch and submits
 *    it; it never waits for co-riders.  So a lone request at low load
 *    goes straight into the pipeline, and under load -- while the
 *    submission waits for stage 0 to take the previous batch -- the
 *    backlog alone fills batches, up to maxBatch.
 *  - Bit-identity: outputs equal per-sample PrimeSystem::run() calls
 *    regardless of batch composition, overlap of batches in flight,
 *    thread count or queue capacity (the executor's own contract:
 *    every stage processes its samples in arrival order on one
 *    worker).
 *  - One engine serves one mapped model (the PrimeSystem it wraps);
 *    coalescing is therefore per-model by construction.  Serving
 *    several models means several engines over several systems.
 *  - Threading: trySubmit from any thread; start/stop/stats from one
 *    controlling thread (stats() reads are stable only after stop(),
 *    which waits for every batch in flight).
 *    Submissions racing stop() may be rejected, and every submission
 *    after stop() returned is (serving.rejected.stopping) until the
 *    next start().
 *
 * Telemetry: per-request end-to-end and queue-wait latency land in
 * telemetry::Histogram stats (p50/p95/p99), batch sizes in a third;
 * serving.accepted/rejected(.full/.stopping/.shape)/completed/batches
 * surface both as stat formulas and as MetricsRegistry counters, and
 * registerMetrics adds live gauges for ingress queue depth and batches
 * in flight.
 */

#ifndef PRIME_SERVE_SERVING_ENGINE_HH
#define PRIME_SERVE_SERVING_ENGINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_ring.hh"
#include "common/mutex.hh"
#include "common/parker.hh"
#include "common/thread_annotations.hh"
#include "common/stats.hh"
#include "common/telemetry/metrics.hh"
#include "prime/prime_system.hh"
#include "serve/request.hh"

namespace prime::serve {

/** Serving-engine knobs (CLI: --max-batch, --queue-cap, ...). */
struct ServingOptions
{
    /** Bounded ingress ring slots; a full ring sheds load. */
    std::size_t queueCapacity = 1024;
    /** Largest dynamic batch one submission carries. */
    int maxBatch = 16;
    /** Passed through to PrimeSystem::submitBatch per batch; a
     *  maxQueued left at 0 becomes maxBatch (see the batching
     *  policy). */
    core::PrimeSystem::RunBatchOptions batch;
};

/** Dynamic-batching request scheduler over one PrimeSystem. */
class ServingEngine
{
  public:
    /** @p system must already be mapped (mapTopology). */
    ServingEngine(core::PrimeSystem &system, const ServingOptions &options);
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /** Spawn the scheduler thread (idempotent). */
    void start();

    /**
     * Drain and join: stop admitting, let the scheduler empty the
     * ingress ring and flush its partial batch, join it, then wait
     * until every submitted batch completed (idempotent).  The counter
     * formulas in stats() read the final totals live.
     */
    void stop();

    bool running() const { return running_; }

    /**
     * Submit one request from any thread.  Returns the request id on
     * acceptance; std::nullopt when the engine shed it (ingress full:
     * serving.rejected.full, or stop() underway:
     * serving.rejected.stopping) or the tensor's element count does
     * not match the model input (serving.rejected.shape) -- the
     * admission-control contract, never blocking, no callback for
     * rejected requests.  serving.rejected is the sum of the three.
     */
    std::optional<std::uint64_t> trySubmit(nn::Tensor input,
                                           CompletionFn on_complete);

    // ---------------------------------------------------- telemetry --

    /** serving.* stats: latency/batch-size histograms + counter
     *  formulas.  Stable to read once stop() returned -- the analysis
     *  escape below encodes exactly that quiescence contract: the
     *  histograms are statsMutex_-guarded while batches complete, and
     *  this unlocked handle is for the controlling thread after
     *  stop() saw them all complete. */
    StatGroup &stats() PRIME_NO_THREAD_SAFETY_ANALYSIS { return stats_; }

    /**
     * Register live probes with @p registry: serving.queue.depth /
     * serving.inflight_batches gauges and the
     * accepted/rejected/completed/batches counters.  Pair with
     * unregisterMetrics before the engine is destroyed.
     */
    void registerMetrics(telemetry::MetricsRegistry &registry);

    /** Remove every probe registerMetrics added to @p registry. */
    void unregisterMetrics(telemetry::MetricsRegistry &registry);

    std::uint64_t accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }
    /** All rejections: the sum of the three reasons below. */
    std::uint64_t rejected() const
    {
        return rejectedShape() + rejectedFull() + rejectedStopping();
    }
    /** Rejections for a tensor of the wrong element count. */
    std::uint64_t rejectedShape() const
    {
        return rejectedShape_.load(std::memory_order_relaxed);
    }
    /** Rejections because the ingress ring was full (load shed). */
    std::uint64_t rejectedFull() const
    {
        return rejectedFull_.load(std::memory_order_relaxed);
    }
    /** Rejections because admission was closed (stop() began). */
    std::uint64_t rejectedStopping() const
    {
        return rejectedStopping_.load(std::memory_order_relaxed);
    }
    std::uint64_t completed() const
    {
        return completed_.load(std::memory_order_relaxed);
    }
    std::uint64_t batches() const
    {
        return batches_.load(std::memory_order_relaxed);
    }
    /** Batches submitted and not yet completed (relaxed snapshot). */
    std::uint64_t inflightBatches() const
    {
        return inflightBatches_.load(std::memory_order_relaxed);
    }

    const ServingOptions &options() const { return options_; }

  private:
    /** One submitted batch: its riders, and the inputs the pipeline
     *  reads until the batch completes. */
    struct Batch
    {
        std::vector<Request> requests;
        std::vector<nn::Tensor> inputs;
        double dispatchNs = 0.0;
    };

    double nowNs() const;
    bool popOrQuit(Request &out);
    void schedulerLoop();
    void flush(std::vector<Request> &&requests);
    void complete(Batch &batch, std::vector<nn::Tensor> &&outputs);

    core::PrimeSystem &system_;
    ServingOptions options_;
    /** Element count of the mapped model's input tensor. */
    std::size_t inputCount_;

    MpscRing<Request> ingress_;
    /** The scheduler parks here for requests (woken by trySubmit and
     *  stop()). */
    Parker arrivals_;
    /** Submitters mid-trySubmit; pairs with stopping_ (both seq_cst)
     *  so the draining scheduler never races an in-flight push. */
    std::atomic<std::uint64_t> pendingSubmits_{0};
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejectedShape_{0};
    std::atomic<std::uint64_t> rejectedFull_{0};
    std::atomic<std::uint64_t> rejectedStopping_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> batches_{0};
    /** Batches submitted and not yet completed; stop() waits on
     *  drainCv_ for zero (decremented under drainMutex_). */
    std::atomic<std::uint64_t> inflightBatches_{0};
    Mutex drainMutex_;
    CondVar drainCv_;

    /** Guards the histograms (the scheduler samples batch sizes while
     *  the last-stage worker samples latencies). */
    Mutex statsMutex_;
    StatGroup stats_ PRIME_GUARDED_BY(statsMutex_);

    std::atomic<bool> stopping_{false};
    bool running_ = false;
    std::chrono::steady_clock::time_point epoch_;
    std::thread scheduler_;
    std::vector<std::string> metricNames_;
};

} // namespace prime::serve

#endif // PRIME_SERVE_SERVING_ENGINE_HH
